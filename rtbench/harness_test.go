package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= minBeyond; n++ {
		if _, _, ok := tail(make([]float64, n)); ok {
			t.Fatalf("n=%d: tail reported with fewer than %d samples beyond it", n, minBeyond)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{11, 12, 57, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want %d", n, beyond, minBeyond)
		}
		if want := 100 * float64(n-minBeyond) / float64(n); pct != want {
			t.Fatalf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, pct, _ := tail(xs); v != 90 || pct != 90 {
		t.Fatalf("1..100: tail %v at p%v, want 90 at p90", v, pct)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Fatalf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A stall on one request must show up in the latency of the requests
// scheduled behind it: latency runs from the due time, not from when a
// request finally got through.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 80 * time.Millisecond
	var conn sync.Mutex // one connection: requests queue behind each other
	start := time.Now().Add(time.Millisecond)
	ts := openLoop(start, interval, 6, func(i int, rt *reqTiming) {
		conn.Lock()
		defer conn.Unlock()
		rt.gotConn = time.Now()
		if i == 0 {
			time.Sleep(stall)
		}
		rt.done = time.Now()
	})
	for i := range ts {
		rt := &ts[i]
		if want := start.Add(time.Duration(i) * interval); !rt.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, rt.due, want)
		}
		if rt.sent.Before(rt.due) {
			t.Fatalf("request %d sent before it was due", i)
		}
		if rt.latency() != rt.done.Sub(rt.due) {
			t.Fatalf("request %d: latency is not measured from the due time", i)
		}
		if i == 0 {
			continue
		}
		// Served in a few µs once connected, yet delayed by the stall.
		if service := rt.done.Sub(rt.gotConn); service > stall/4 {
			t.Fatalf("request %d: service time %v", i, service)
		}
		if floor := stall - time.Duration(i)*interval; rt.latency() < floor {
			t.Fatalf("request %d: latency %v hides the stall (want ≥ %v)", i, rt.latency(), floor)
		}
	}
	p50, _, keptUp := generatorLateness(ts)
	if !keptUp || p50 < 0 {
		t.Fatalf("idle generator reported as late: p50 %v ms", p50)
	}
}

func TestGeneratorFallingBehindIsInvalid(t *testing.T) {
	now := time.Now()
	ts := make([]reqTiming, 4)
	for i := range ts {
		ts[i].due = now.Add(time.Duration(i) * time.Millisecond)
		ts[i].sent = ts[i].due.Add(time.Duration(i) * 100 * time.Millisecond)
	}
	if _, max, keptUp := generatorLateness(ts); keptUp || max != 300 {
		t.Fatalf("generator 300 ms behind: keptUp=%v max=%v", keptUp, max)
	}
}

// The traced layers must add up to the traced whole: self times plus the
// roots' unattributed remainder equal the summed root durations, and the
// remainder is never negative.
func TestReconcileAddsUp(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "iter", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "fwd", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 2, Name: "decode", Start: 30 * ms, End: 35 * ms},
		{ID: 4, Parent: 1, Name: "bwd", Start: 40 * ms, End: 90 * ms},
		{ID: 5, Name: "iter", Start: 200 * ms, End: 260 * ms},
		{ID: 6, Parent: 5, Name: "fwd", Start: 200 * ms, End: 260 * ms},
		{ID: 7, Name: "other", Start: 0, End: 500 * ms},
	}
	b, err := reconcile(spans, "iter")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"fwd": 25*ms + 60*ms, "decode": 5 * ms, "bwd": 50 * ms}
	for name, d := range want {
		if b.Layers[name] != d {
			t.Fatalf("%s self time %v, want %v", name, b.Layers[name], d)
		}
	}
	if b.Roots != 2 || b.Whole != 160*ms || b.Unattributed != 20*ms {
		t.Fatalf("roots %d whole %v unattributed %v", b.Roots, b.Whole, b.Unattributed)
	}
	assertAddsUp(t, b)
}

func TestReconcileRejectsMisnestedSpans(t *testing.T) {
	ms := time.Millisecond
	cases := map[string][]span{
		"overlapping siblings": {
			{ID: 1, Name: "iter", Start: 0, End: 100 * ms},
			{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 50 * ms},
			{ID: 3, Parent: 1, Name: "b", Start: 40 * ms, End: 60 * ms},
		},
		"child outside parent": {
			{ID: 1, Name: "iter", Start: 0, End: 100 * ms},
			{ID: 2, Parent: 1, Name: "a", Start: 90 * ms, End: 110 * ms},
		},
		"unended span": {
			{ID: 1, Name: "iter", Start: 0, End: -1},
		},
		"no roots": {
			{ID: 1, Name: "other", Start: 0, End: ms},
		},
	}
	for name, spans := range cases {
		if _, err := reconcile(spans, "iter"); err == nil {
			t.Errorf("%s: reconciled without error", name)
		}
	}
}

// Spans recorded live by the tracer, nested as the workloads nest them,
// reconcile exactly.
func TestTracerSpansReconcile(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		root := tr.begin("iter", 0)
		tr.call("fwd", root, func() {
			time.Sleep(time.Millisecond)
		})
		id := tr.begin("bwd", root)
		tr.call("inner", id, func() { time.Sleep(time.Millisecond) })
		tr.end(id)
		time.Sleep(time.Millisecond)
		tr.end(root)
	}
	b, err := reconcile(tr.snapshot(), "iter")
	if err != nil {
		t.Fatal(err)
	}
	if b.Roots != 3 || b.Unattributed < 3*time.Millisecond {
		t.Fatalf("roots %d, unattributed %v", b.Roots, b.Unattributed)
	}
	assertAddsUp(t, b)
	var none *tracer
	if id := none.begin("x", 0); id != 0 {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	none.end(0)
}

func assertAddsUp(t *testing.T, b breakdown) {
	t.Helper()
	sum := b.Unattributed
	for _, d := range b.Layers {
		sum += d
	}
	if sum != b.Whole {
		t.Fatalf("layers + unattributed = %v, whole = %v", sum, b.Whole)
	}
	if b.Unattributed < 0 {
		t.Fatalf("negative unattributed remainder %v", b.Unattributed)
	}
}

func TestFleetPlanRepeatsAnsweredRequests(t *testing.T) {
	payloads := []string{"a", "b", "c"}
	const rate = 5.0
	plan, err := fleetPlan(7, payloads, 300, rate)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := fleetPlan(7, payloads, 300, rate)
	seeds := map[int64]int{}
	repeats := 0
	lag := int(repeatLag.Seconds() * rate)
	for i, p := range plan {
		if string(p.body) != string(again[i].body) {
			t.Fatalf("request %d differs between two plans from one seed", i)
		}
		if p.key != i {
			repeats++
			if p.key > i-lag {
				t.Fatalf("request %d repeats request %d, less than %v behind", i, p.key, repeatLag)
			}
			continue
		}
		if prev, dup := seeds[p.req.Seed]; dup {
			t.Fatalf("fresh requests %d and %d share eval seed %d", prev, i, p.req.Seed)
		}
		seeds[p.req.Seed] = i
	}
	if share := float64(repeats) / float64(len(plan)); share < 0.15 || share > 0.3 {
		t.Fatalf("repeat share %.2f, want about %.2f", share, repeatShare)
	}
}

// BENCHMARK.json and the program must declare the same metrics and
// workloads, or the driver and the result line disagree.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Fatalf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Fatalf("%s metric %d: %v, BENCHMARK.json has %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
