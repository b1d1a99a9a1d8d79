package fabric

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// walLife opens the journal at path, checks it replays want, appends add,
// and closes it: one gateway lifetime.
func walLife(t *testing.T, path string, want []WALRecord, add ...WALRecord) {
	t.Helper()
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records %+v, want %d %+v", len(got), got, len(want), want)
	}
	for _, rec := range add {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func appendRaw(t *testing.T, path, raw string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTailThreeLives: a crash tears the final line; the next life
// replays what was intact and appends; the life after that must replay the
// second life's records too, not lose them behind the torn bytes.
func TestWALTornTailThreeLives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.wal")
	a := WALRecord{T: walSubmit, ID: "j000001-a", Seq: 1, Digest: "da"}
	b := WALRecord{T: walResult, ID: "j000001-a", Status: "done", Result: []byte(`{"ok":true}`)}
	c := WALRecord{T: walSubmit, ID: "j000002-c", Seq: 2, Digest: "dc"}

	walLife(t, path, nil, a)
	appendRaw(t, path, `{"t":"resu`) // crash mid-append
	walLife(t, path, []WALRecord{a}, b, c)
	walLife(t, path, []WALRecord{a, b, c})
}

// TestWALUnterminatedTailKept: an intact record whose newline never reached
// disk is replayed, and the next Append still starts a line of its own.
func TestWALUnterminatedTailKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.wal")
	a := WALRecord{T: walSubmit, ID: "j000001-a", Seq: 1, Digest: "da"}
	b := WALRecord{T: walDispatch, ID: "j000001-a"}
	if err := os.WriteFile(path, []byte(`{"t":"submit","id":"j000001-a","seq":1,"digest":"da"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	walLife(t, path, []WALRecord{a}, b)
	walLife(t, path, []WALRecord{a, b})
}

// TestWALDamagedLineFails: a bad line with intact records after it is a
// damaged file, not a torn tail; OpenWAL must refuse it and name the line.
func TestWALDamagedLineFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.wal")
	raw := `{"t":"submit","id":"j000001-a","seq":1}` + "\n" + `{"t":` + "\n" + `{"t":"dispatch","id":"j000001-a"}` + "\n"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWAL(path)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("OpenWAL on a damaged middle line: err %v, want one naming line 2", err)
	}
}
