// Package telemetry is a dependency-free metrics registry for the serving
// layer: monotonically increasing counters, gauges, and latency histograms,
// exposed in the Prometheus text format so any standard scraper can consume
// GET /metrics. Metric handles are cheap to update from hot paths (atomics
// for counters/gauges, one short mutex for histograms); families support an
// optional fixed label set resolved once at registration time.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a fixed label set attached to one metric series.
type Labels map[string]string

// render formats labels in Prometheus `{k="v",...}` form, sorted by key so
// equal sets always produce the same series identity.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabelValue(l[k]) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escapeLabelValue applies the Prometheus text exposition escaping for
// label values: backslash, double quote, and newline — and nothing else.
// Go's %q is close but wrong: it escapes tabs, non-ASCII, and other control
// bytes into sequences scrapers read literally.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefLatencyBuckets are the default histogram bucket bounds in seconds.
var DefLatencyBuckets = []float64{0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram tracks a value distribution over fixed cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []uint64 // one per bound, non-cumulative
	sum     float64
	samples uint64
	// exemplars has one slot per bound plus a final +Inf slot; nil until
	// the first ObserveExemplar, so plain histograms pay nothing.
	exemplars []Exemplar
}

// Exemplar links one observed sample to the trace that produced it, in the
// OpenMetrics sense: scrape output annotates the bucket the sample landed
// in with `# {trace_id="..."} value`, so a p99 outlier on a dashboard
// resolves directly to a journal trace ID.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
}

func (h *Histogram) observeLocked(v float64) int {
	h.sum += v
	h.samples++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return i
		}
	}
	return len(h.bounds) // the implicit +Inf bucket
}

// ObserveExemplar records one sample and attaches traceID as the bucket's
// exemplar (latest wins: the most recent outlier is the one worth chasing).
// An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := h.observeLocked(v)
	if traceID == "" {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = Exemplar{TraceID: traceID, Value: v}
}

// HistSnapshot is a point-in-time copy of a histogram in wire-friendly
// form: cumulative bucket counts (one per bound; the +Inf count is Count),
// the sum, and any bucket exemplars. It is what the fabric Stats frame
// carries from node to gateway, and what the fleet aggregator merges.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // cumulative, len == len(Bounds)
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
	// Exemplars is indexed by bucket: 0..len(Bounds)-1 for finite buckets,
	// len(Bounds) for +Inf. Empty TraceID means no exemplar. Nil when the
	// histogram has never seen an exemplar.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum,
		Count:  h.samples,
	}
	var acc uint64
	for i, c := range h.counts {
		acc += c
		snap.Counts[i] = acc
	}
	if h.exemplars != nil {
		snap.Exemplars = append([]Exemplar(nil), h.exemplars...)
	}
	return snap
}

// MergeSnapshots sums histogram snapshots with identical bounds into one
// fleet-wide view. Exemplars merge bucket-wise; when several snapshots
// carry one for the same bucket, the later snapshot in the slice wins, so
// callers should pass snapshots in a deterministic order. Mismatched
// bounds are an error: silently summing differently bucketed histograms
// would fabricate a distribution.
func MergeSnapshots(snaps []HistSnapshot) (HistSnapshot, error) {
	if len(snaps) == 0 {
		return HistSnapshot{}, fmt.Errorf("telemetry: no snapshots to merge")
	}
	var out HistSnapshot
	for i, s := range snaps {
		if i == 0 {
			out.Bounds = append([]float64(nil), s.Bounds...)
			out.Counts = make([]uint64, len(s.Counts))
		} else if !equalBounds(out.Bounds, s.Bounds) {
			return HistSnapshot{}, fmt.Errorf("telemetry: merging histograms with different bounds: %v vs %v", out.Bounds, s.Bounds)
		}
		if len(s.Counts) != len(s.Bounds) {
			return HistSnapshot{}, fmt.Errorf("telemetry: snapshot has %d counts for %d bounds", len(s.Counts), len(s.Bounds))
		}
		for j, c := range s.Counts {
			out.Counts[j] += c
		}
		out.Sum += s.Sum
		out.Count += s.Count
		for j, e := range s.Exemplars {
			if e.TraceID == "" || j > len(out.Bounds) {
				continue
			}
			if out.Exemplars == nil {
				out.Exemplars = make([]Exemplar, len(out.Bounds)+1)
			}
			out.Exemplars[j] = e
		}
	}
	return out, nil
}

// series is one (labels, metric) pair within a family.
type series struct {
	labels  string
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// lookup returns (creating if needed) the series for name+labels. A
// registration that conflicts with the family's established identity —
// different metric type or different help text — is a descriptive error
// rather than a silent first-writer-wins.
func (r *Registry) lookup(name, help, typ string, labels Labels) (*series, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: map[string]*series{}}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		return nil, fmt.Errorf("telemetry: metric %q already registered as %s, re-registered as %s", name, f.typ, typ)
	}
	if f.help != help {
		return nil, fmt.Errorf("telemetry: metric %q help redefined: %q vs %q", name, f.help, help)
	}
	key := labels.render()
	s, ok := f.byLabels[key]
	if !ok {
		s = &series{labels: key}
		f.byLabels[key] = s
		f.series = append(f.series, s)
	}
	return s, nil
}

// RegisterCounter returns the counter for name+labels, creating it on first
// use. Re-registration with an identical spec is idempotent and returns the
// same handle; a conflicting spec is an error.
func (r *Registry) RegisterCounter(name, help string, labels Labels) (*Counter, error) {
	s, err := r.lookup(name, help, "counter", labels)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter, nil
}

// RegisterGauge returns the gauge for name+labels, creating it on first
// use. Registering a value gauge over a derived (GaugeFunc) series is an
// error: the function would silently shadow the value at scrape time.
func (r *Registry) RegisterGauge(name, help string, labels Labels) (*Gauge, error) {
	s, err := r.lookup(name, help, "gauge", labels)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gaugeFn != nil {
		return nil, fmt.Errorf("telemetry: gauge %q%s already registered as a derived gauge (GaugeFunc)", name, s.labels)
	}
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge, nil
}

// RegisterGaugeFunc registers a derived gauge: fn is evaluated at scrape
// time, so the series always reflects the current value of whatever it is
// computed from (e.g. a ratio of two live counters). fn must be safe for
// concurrent use. Registering over an existing function or value gauge is
// an error — two closures cannot be compared for idempotence, and silently
// keeping either one hides a stale-closure bug. Use SetGaugeFunc when
// replacement is the intent (e.g. a re-created component re-binding its
// scrape closure).
func (r *Registry) RegisterGaugeFunc(name, help string, labels Labels, fn func() float64) error {
	if fn == nil {
		return fmt.Errorf("telemetry: nil GaugeFunc for %q", name)
	}
	s, err := r.lookup(name, help, "gauge", labels)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gaugeFn != nil {
		return fmt.Errorf("telemetry: derived gauge %q%s already registered; use SetGaugeFunc to replace it", name, s.labels)
	}
	if s.gauge != nil {
		return fmt.Errorf("telemetry: gauge %q%s already registered as a value gauge", name, s.labels)
	}
	s.gaugeFn = fn
	return nil
}

// SetGaugeFunc registers or explicitly replaces the derived gauge for
// name+labels. This is the re-bind path for components that are torn down
// and re-created (a fabric backend re-joining re-points the series at the
// new breaker); family type/help conflicts still error.
func (r *Registry) SetGaugeFunc(name, help string, labels Labels, fn func() float64) error {
	if fn == nil {
		return fmt.Errorf("telemetry: nil GaugeFunc for %q", name)
	}
	s, err := r.lookup(name, help, "gauge", labels)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge != nil {
		return fmt.Errorf("telemetry: gauge %q%s already registered as a value gauge", name, s.labels)
	}
	s.gaugeFn = fn
	return nil
}

// RegisterHistogram returns the histogram for name+labels, creating it on
// first use with the given bucket bounds (nil = DefLatencyBuckets).
// Re-registration with different bounds is an error — the original buckets
// would silently keep counting otherwise.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, bounds []float64) (*Histogram, error) {
	s, err := r.lookup(name, help, "histogram", labels)
	if err != nil {
		return nil, err
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	// The exposition format mandates a final +Inf bucket carrying the
	// total sample count; writeSeries appends it. Callers that include
	// +Inf themselves would otherwise produce a duplicate le="+Inf"
	// series, so trailing infinite bounds are dropped here.
	for len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		bounds = bounds[:len(bounds)-1]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
		return s.hist, nil
	}
	if !equalBounds(s.hist.bounds, bounds) {
		return nil, fmt.Errorf("telemetry: histogram %q%s bounds redefined: %v vs %v", name, s.labels, s.hist.bounds, bounds)
	}
	return s.hist, nil
}

// equalBounds compares bucket specs bit-for-bit: bounds are configured
// constants, not computed values, so identity — not epsilon closeness —
// is the right notion of "same histogram".
func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// mustRegister turns a registration conflict into a panic for the
// convenience constructors, where a collision is a programming error.
func mustRegister(err error) {
	if err != nil {
		panic("telemetry: " + strings.TrimPrefix(err.Error(), "telemetry: "))
	}
}

// Counter is the panic-on-conflict convenience form of RegisterCounter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c, err := r.RegisterCounter(name, help, labels)
	mustRegister(err)
	return c
}

// Gauge is the panic-on-conflict convenience form of RegisterGauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g, err := r.RegisterGauge(name, help, labels)
	mustRegister(err)
	return g
}

// GaugeFunc is the panic-on-conflict convenience form of RegisterGaugeFunc.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	mustRegister(r.RegisterGaugeFunc(name, help, labels, fn))
}

// Histogram is the panic-on-conflict convenience form of RegisterHistogram.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h, err := r.RegisterHistogram(name, help, labels, bounds)
	mustRegister(err)
	return h
}

// WriteText renders every registered family in the Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	// Registration appends to a family's series and fills series handles
	// concurrently with scrapes, so both are copied under the lock; the
	// writes (and gauge functions) then run without it.
	type familyCopy struct {
		f      *family
		series []series
	}
	r.mu.Lock()
	fams := make([]familyCopy, len(r.families))
	for i, f := range r.families {
		fams[i] = familyCopy{f: f, series: make([]series, len(f.series))}
		for j, s := range f.series {
			fams[i].series[j] = *s
		}
	}
	r.mu.Unlock()
	for _, fc := range fams {
		f := fc.f
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for i := range fc.series {
			if err := writeSeries(w, f, &fc.series[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		return err
	case s.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %g\n", f.name, s.labels, s.gaugeFn())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %g\n", f.name, s.labels, s.gauge.Value())
		return err
	case s.hist != nil:
		return writeHistSnapshot(w, f.name, s.labels, s.hist.Snapshot())
	}
	return nil
}

// WriteSnapshot renders a standalone histogram snapshot as one full text
// family (HELP/TYPE, buckets, sum, count). The gateway's fleet aggregator
// uses it to expose merged per-backend histograms that no local *Histogram
// backs.
func WriteSnapshot(w io.Writer, name, help string, labels Labels, snap HistSnapshot) error {
	if err := WriteFamilyHeader(w, name, help); err != nil {
		return err
	}
	return WriteSnapshotSeries(w, name, labels, snap)
}

// WriteFamilyHeader emits the HELP/TYPE preamble for a standalone histogram
// family. Callers rendering several label sets under one name (one series
// per stage, say) write the header once and then WriteSnapshotSeries per
// label set — the exposition format allows each family name only one
// HELP/TYPE pair.
func WriteFamilyHeader(w io.Writer, name, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	return err
}

// WriteSnapshotSeries renders one histogram series (buckets, sum, count)
// without the family header.
func WriteSnapshotSeries(w io.Writer, name string, labels Labels, snap HistSnapshot) error {
	return writeHistSnapshot(w, name, labels.render(), snap)
}

func writeHistSnapshot(w io.Writer, name, labels string, snap HistSnapshot) error {
	exemplar := func(i int) *Exemplar {
		if i < len(snap.Exemplars) && snap.Exemplars[i].TraceID != "" {
			return &snap.Exemplars[i]
		}
		return nil
	}
	for i, b := range snap.Bounds {
		if err := writeBucket(w, name, labels, fmt.Sprintf("%g", b), snap.Counts[i], exemplar(i)); err != nil {
			return err
		}
	}
	if err := writeBucket(w, name, labels, "+Inf", snap.Count, exemplar(len(snap.Bounds))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, labels, snap.Sum, name, labels, snap.Count)
	return err
}

// writeBucket emits one cumulative histogram bucket, splicing le into any
// existing label set. A non-nil exemplar appends the OpenMetrics-style
// annotation `# {trace_id="..."} value`; buckets without exemplars render
// exactly as before, so plain scrapes are byte-unchanged.
func writeBucket(w io.Writer, name, labels, le string, v uint64, ex *Exemplar) error {
	leLabel := `le="` + escapeLabelValue(le) + `"`
	var line string
	if labels == "" {
		line = fmt.Sprintf("%s_bucket{%s} %d", name, leLabel, v)
	} else {
		inner := strings.TrimSuffix(labels, "}") + "," + leLabel + "}"
		line = fmt.Sprintf("%s_bucket%s %d", name, inner, v)
	}
	if ex != nil {
		line += fmt.Sprintf(" # {trace_id=\"%s\"} %g", escapeLabelValue(ex.TraceID), ex.Value)
	}
	_, err := fmt.Fprintln(w, line)
	return err
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
