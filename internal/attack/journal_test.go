package attack

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"roadtrojan/internal/obs"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

// trainers are the three attack methods, keyed by their journal "method"
// attribute.
var trainers = []struct {
	method string
	train  func(*yolo.Model, scene.Camera, Scene, Config, *obs.Trace) (*Patch, *TrainStats, error)
}{
	{"ours", Train}, {"direct", TrainDirect}, {"baseline", TrainBaseline},
}

// journalRun trains a tiny fixed-seed patch into an in-memory journal and
// returns the raw bytes. Everything — detector init, attack config, and the
// trace's logical clock — is rebuilt from scratch so two calls share no
// state.
func journalRun(t *testing.T, train func(*yolo.Model, scene.Camera, Scene, Config, *obs.Trace) (*Patch, *TrainStats, error), iters int) []byte {
	t.Helper()
	sc := testScene()
	det := yolo.New(rand.New(rand.NewSource(5)), yolo.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Iters = iters
	cfg.N = 2

	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	tr := obs.New(j, obs.NewLogicalClock())
	if _, _, err := train(det, scene.DefaultCamera(), sc, cfg, tr); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainJournalByteStable is the determinism acceptance test: for every
// method the same seed must produce a byte-identical journal, because the
// trainers draw no wall-clock time and the logical clock makes ticks a pure
// function of the event sequence.
func TestTrainJournalByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("journal determinism test skipped in -short mode")
	}
	for _, tc := range trainers {
		t.Run(tc.method, func(t *testing.T) {
			a := journalRun(t, tc.train, 5)
			b := journalRun(t, tc.train, 5)
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different journals:\n--- first ---\n%s\n--- second ---\n%s", a, b)
			}
		})
	}
}

// TestTrainJournalSchemaAndShape validates each method's journal against
// the reader: correct schema header, only known kinds, and the record
// families a training run must produce.
func TestTrainJournalSchemaAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("journal shape test skipped in -short mode")
	}
	for _, tc := range trainers {
		t.Run(tc.method, func(t *testing.T) { checkJournalShape(t, tc.method, journalRun(t, tc.train, 5)) })
	}
}

func checkJournalShape(t *testing.T, method string, raw []byte) {
	t.Helper()
	header, _, _ := strings.Cut(string(raw), "\n")
	wantHeader := fmt.Sprintf(`{"k":"journal","schema":%d}`, obs.SchemaVersion)
	if header != wantHeader {
		t.Fatalf("journal header = %q, want %q", header, wantHeader)
	}

	recs, err := obs.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Kind]++
	}
	// 5 iterations: a train span, wrapping one restart segment span for the
	// GAN (segments need Iters >= 120); per-iteration iter records; EOT
	// draws for every sampled frame; and at least the final verification
	// snapshot. Only the GAN has a discriminator, so only it writes gan_d
	// records (on a cadence, but they must appear).
	wantSpans := 1
	if method == "ours" {
		wantSpans = 2
	}
	if counts["span_start"] != wantSpans || counts["span_end"] != wantSpans {
		t.Fatalf("span records = %d start / %d end, want %d/%d: %v",
			counts["span_start"], counts["span_end"], wantSpans, wantSpans, counts)
	}
	if counts["iter"] != 5 {
		t.Fatalf("iter records = %d, want 5: %v", counts["iter"], counts)
	}
	if (counts["gan_d"] > 0) != (method == "ours") {
		t.Fatalf("gan_d records = %d for method %q: %v", counts["gan_d"], method, counts)
	}
	if counts["eot"] == 0 {
		t.Fatalf("no eot records: %v", counts)
	}
	if counts["verify"] == 0 {
		t.Fatalf("no verify records: %v", counts)
	}

	for _, r := range recs {
		switch {
		case r.Kind == "span_start" && r.Str("name") == "train":
			if got := r.Str("method"); got != method {
				t.Fatalf("train span method = %q, want %q", got, method)
			}
		case r.Kind == "iter":
			if got := r.Str("method"); got != method {
				t.Fatalf("iter %d method = %q, want %q", r.Int("it"), got, method)
			}
			// Iter records carry the Eq. 1 composition: total = gan_g + α·attack.
			alpha, attack, ganG, total := r.Float("alpha"), r.Float("attack"), r.Float("gan_g"), r.Float("total")
			if diff := total - (ganG + alpha*attack); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("iter %d: total %v != gan_g %v + %v*attack %v", r.Int("it"), total, ganG, alpha, attack)
			}
		}
	}
}
