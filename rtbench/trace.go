package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// call into a module's public function. Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out only when the run
// ends, so recording costs two clock reads and an append. A nil *tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already finished span, for intervals whose end points
// were observed elsewhere (a request's due time, a job on a node worker).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.base), End: end.Sub(t.base)})
	return len(t.spans)
}

// call runs f inside a span named name under parent.
func (t *tracer) call(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// breakdown is a reconciled traced run: the summed duration of the root
// spans, every layer's summed self time, and the roots' own self time,
// which is the part of the whole that no layer span covers.
type breakdown struct {
	Roots        int
	Whole        time.Duration
	Layers       map[string]time.Duration
	Unattributed time.Duration
}

// reconcile attributes the spans under roots named root. A span's self
// time is its duration minus the time its children cover. Children of one
// parent must not overlap and must lie inside it; then the layers' self
// times plus Unattributed add up to Whole exactly, and Unattributed is not
// negative. Violations are errors, not silently misattributed time.
func reconcile(spans []span, root string) (breakdown, error) {
	b := breakdown{Layers: map[string]time.Duration{}}
	byID := make(map[int]span, len(spans))
	children := map[int][]span{}
	for _, s := range spans {
		if s.End < s.Start {
			return b, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var visit func(s span, isRoot bool) error
	visit = func(s span, isRoot bool) error {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		prevEnd := s.Start
		for _, k := range kids {
			if k.Start < prevEnd || k.End > s.End {
				return fmt.Errorf("span %d (%s) overlaps a sibling or leaves its parent %s", k.ID, k.Name, s.Name)
			}
			covered += k.End - k.Start
			prevEnd = k.End
			if err := visit(k, false); err != nil {
				return err
			}
		}
		self := s.End - s.Start - covered
		if isRoot {
			b.Unattributed += self
		} else {
			b.Layers[s.Name] += self
		}
		return nil
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				return b, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
			continue
		}
		if s.Name != root {
			continue
		}
		b.Roots++
		b.Whole += s.End - s.Start
		if err := visit(s, true); err != nil {
			return b, err
		}
	}
	if b.Roots == 0 {
		return b, fmt.Errorf("no %s spans recorded", root)
	}
	return b, nil
}

// writeSpans stores the run's spans as JSON under dir, for offline
// inspection of what the per-layer numbers were computed from.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
