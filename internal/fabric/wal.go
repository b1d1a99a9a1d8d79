package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// WALRecord is one line of the gateway's durable async-job log. Three
// record types share the struct:
//
//	submit   — a job entered the table: id, seq (for id-counter recovery),
//	           patch digest, and the normalized request JSON
//	dispatch — the job left the table for the fleet (informational; replay
//	           treats a dispatch without a result as still in flight)
//	result   — terminal state: status done|failed plus the node's response
//	           bytes or the failure message
type WALRecord struct {
	T      string          `json:"t"` // submit | dispatch | result
	ID     string          `json:"id"`
	Seq    uint64          `json:"seq,omitempty"`
	Digest string          `json:"digest,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
	Status string          `json:"status,omitempty"` // done | failed
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// WAL record types.
const (
	walSubmit   = "submit"
	walDispatch = "dispatch"
	walResult   = "result"
)

// WAL is an append-only JSONL journal of the gateway's async jobs. On
// restart the gateway replays it: finished jobs answer polls again
// (byte-identically — results are stored as raw JSON), and jobs that never
// reached a terminal record are re-dispatched. Re-dispatch is idempotent
// because routing keys on the patch digest: the job lands on the node
// whose result cache already holds (or is computing) that evaluation.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	records []WALRecord
}

// OpenWAL opens (creating if absent) the journal at path and reads every
// intact record. A torn final line — the expected artifact of a crash
// mid-append — is cut off: the file is truncated back to the end of the
// last intact record, so the next Append starts a line of its own instead
// of joining the torn bytes (which would make that record, and every one
// after it, unreadable on the following restart). A bad line with intact
// lines after it is not a torn tail but a damaged file, and OpenWAL fails
// naming it — the rule obs.ReadJournalLenient applies to run journals.
func OpenWAL(path string) (*WAL, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("fabric: read wal %s: %w", path, err)
	}
	var (
		records []WALRecord
		keep    int   // end of the last intact record, newline included
		torn    error // a bad line, forgiven only if nothing follows it
	)
	for n, off := 1, 0; off < len(data); n++ {
		line, rest, _ := bytes.Cut(data[off:], []byte{'\n'})
		off = len(data) - len(rest)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if torn != nil {
			return nil, torn
		}
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			torn = fmt.Errorf("fabric: wal %s line %d is damaged and more lines follow it: %w", path, n, err)
			continue
		}
		records = append(records, rec)
		keep = off
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: open wal %s: %w", path, err)
	}
	// Cut the torn tail; an intact last record the crash left without its
	// newline gets one, for the same reason.
	if keep < len(data) {
		err = f.Truncate(int64(keep))
	}
	if err == nil && keep > 0 && data[keep-1] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: repair wal %s: %w", path, err)
	}
	return &WAL{f: f, records: records}, nil
}

// Records returns the records read at open time, in log order.
func (w *WAL) Records() []WALRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Append writes one record as a single line.
func (w *WAL) Append(rec WALRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fabric: encode wal record: %w", err)
	}
	buf = append(buf, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(buf)
	return err
}

// Close closes the journal file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
