#!/usr/bin/env sh
# Tier-1 verification: gofmt, build, vet, rtlint, race-enabled tests.
# Run from anywhere; operates on the repository root.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== rtlint ./..."
mkdir -p out
# Machine-readable report kept as a CI artifact; the command still exits
# non-zero on any finding the baseline does not cover.
go run ./cmd/rtlint -json ./... > out/rtlint.json

# Baseline-free gate: the tree must be clean on its own. A committed
# rtlint.baseline means someone grandfathered a violation instead of
# fixing it — reject that here.
if [ -f rtlint.baseline ]; then
    echo "check: rtlint.baseline exists; fix the findings instead of grandfathering them" >&2
    exit 1
fi

# Analyzer self-test: the corpus wants and the seeded scratch bugs must
# still fire, so a regression in the CFG/dataflow engine cannot silently
# turn the checks into no-ops.
echo "== rtlint corpus + seeded-scratch self-test"
go test -count 1 -run 'TestCorpus|TestSeededScratch' ./internal/analysis

# Focused journal checks first: golden-report drift and journal
# determinism fail in seconds here, before the full race suite spins up.
echo "== golden journal + report"
go test -count 1 -run 'TestTrainJournal' ./internal/attack
go test -count 1 -run 'Golden' ./internal/obs ./cmd/runreport

# Core-count gate: the split conv kernels and the frozen backward must give
# the same bits as the reference kernels whatever the core count, so these
# run at GOMAXPROCS 1, 2 and 4 regardless of how many cores CI has.
echo "== split-kernel parity + frozen parameters at -cpu 1,2,4"
go test -count 1 -cpu 1,2,4 -run 'Split|Parity|Frozen|Freeze' ./internal/tensor ./internal/nn ./internal/yolo
go test -count 1 -cpu 1,2,4 -run 'TrainLeavesVictimUntouched' ./internal/attack

# Portable-kernel gate: on an AVX2 machine the steps above run the assembly
# matmul kernel. The purego build takes the scalar kernels every other
# GOARCH runs, so they stay under the same parity tests and core counts.
echo "== portable kernels (-tags purego) at -cpu 1,2,4"
go test -count 1 -tags purego -cpu 1,2,4 -run 'Split|Parity|Frozen|Freeze|Kernel' ./internal/tensor ./internal/nn ./internal/yolo

echo "== GOARCH=arm64 go build ./..."
GOARCH=arm64 go build ./...

# No-fusion gate: DESIGN.md §7 forbids fused multiply-adds, and arm64's
# compiler fuses `acc += a*b` unless the product is wrapped in float64().
# Any fused instruction in the arm64 build of the numeric packages means a
# node there would compute different bits than an amd64 node.
echo "== no fused multiply-add in arm64 internal/tensor, internal/nn"
mkdir -p out/arm64
fused=""
for pkg in tensor nn; do
    GOARCH=arm64 go build -o "out/arm64/$pkg.a" "./internal/$pkg"
    fused="$fused$(go tool objdump "out/arm64/$pkg.a" |
        awk '/^TEXT /{sym=$2} /FMADDD|FMSUBD|FNMADDD|FNMSUBD/{print sym ": " $0}')"
done
if [ -n "$fused" ]; then
    echo "check: fused multiply-add in the arm64 build; wrap the product in float64(...):" >&2
    echo "$fused" >&2
    exit 1
fi

# Fabric smoke gate: a gateway fronting two real nodes over loopback TCP
# must complete an evaluate round-trip and drain cleanly, under the race
# detector. Fast and focused, so fabric wiring regressions fail here with
# a readable name before the full suite runs.
echo "== fabric smoke (gateway + 2 nodes)"
go test -race -count 1 -run 'TestFabricSmoke' ./internal/fabric

# Trace golden gate: the committed tracetool fixture must merge
# byte-for-byte into testdata/merged.golden, and a live gateway plus
# three journaled nodes must produce one causal tree whose merged
# rendering is identical across fresh runs (injected logical clocks).
echo "== trace golden (tracetool fixture + cross-process merge)"
go test -count 1 ./cmd/tracetool
go test -race -count 1 -run 'TestTraceGoldenCrossProcess' ./internal/fabric

# Chaos gate: seed-deterministic fault injection (partitions, corrupt and
# truncated frames, slow-loris handshakes, duplicate delivery) against the
# chaos wrappers and the gateway/node pair, race-enabled. Seeds are pinned
# in the tests — a failure here reproduces byte-for-byte.
echo "== chaos suite (deterministic fault injection)"
go test -race -count 1 -run 'TestChaos' ./internal/chaos ./internal/fabric

echo "== go test -race ./..."
go test -race ./...

echo "== benchperf smoke"
mkdir -p out
go run ./cmd/benchperf -smoke -out out/bench_smoke.json

# Serving gate: micro-batched throughput must stay >= 2x the single-request
# path on the duplicate-heavy burst workload, and must not regress more than
# the tolerance against the committed BENCH_serve.json. Writes a scratch
# artifact; the committed file only changes via `make bench-serve`.
echo "== benchperf serve smoke"
go run ./cmd/benchperf -serve -smoke -prev BENCH_serve.json -out out/bench_serve_smoke.json

echo "== checks passed"
