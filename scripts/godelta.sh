#!/usr/bin/env sh
# Net *.go line delta of the working tree against a base commit, split into
# non-test and _test.go files. The base defaults to HEAD, so uncommitted
# work counts; untracked (not ignored) files count as wholly added.
#
#   scripts/godelta.sh            # against HEAD
#   scripts/godelta.sh main~1     # against any commit
set -eu
cd "$(dirname "$0")/.."
base="${1:-HEAD}"

{
    git diff --numstat --no-renames "$base" -- '*.go'
    git ls-files --others --exclude-standard -- '*.go' | while IFS= read -r f; do
        printf '%s\t0\t%s\n' "$(wc -l < "$f")" "$f"
    done
} | awk -v base="$base" '
    {
        kind = ($3 ~ /_test\.go$/) ? "test" : "code"
        add[kind] += $1
        del[kind] += $2
    }
    END {
        printf "*.go line delta against %s\n", base
        printf "%-10s %8s %8s %8s\n", "", "added", "removed", "net"
        printf "%-10s %8d %8d %+8d\n", "non-test", add["code"], del["code"], add["code"] - del["code"]
        printf "%-10s %8d %8d %+8d\n", "_test.go", add["test"], del["test"], add["test"] - del["test"]
    }'
