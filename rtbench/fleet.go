package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/fabric"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/yolo"
)

const (
	// fleetChallenge is what every request evaluates, digitally, one run:
	// a short moving-camera video, so a fresh job costs a few hundred ms.
	fleetChallenge = "normal"
	// fleetPatches distinct fixed-seed patches spread requests over the ring.
	fleetPatches = 16
	// fleetPatchSeed is the first patch's seed; patch i uses seed+i.
	fleetPatchSeed = 5000
	// fleetConns bounds the load generator's connections to the gateway;
	// it equals the fleet's worker count.
	fleetConns = 2
	// serveFleetRate is serve_fleet's offered load in requests per second,
	// about half of what the fleet completes when saturated with fresh
	// jobs on a 2-core machine (README.md records the measurement).
	serveFleetRate = 5.0
	// repeatShare of serve_fleet's requests repeat an earlier request.
	repeatShare = 0.25
	// repeatLag keeps a repeat at least this far behind the request it
	// repeats, so the original has been answered and cached by then.
	repeatLag = 2 * time.Second
	// fleetSetups is how many times the fleet is built.
	fleetSetups = 3
)

// nodeNames are the nodes' fixed fabric identities. The gateway's ring
// keys on them and the dialer resolves them to loopback ports, so which
// node owns which patch is the same on every run.
var nodeNames = []string{"node-a", "node-b"}

// fleet is a gateway fronting two fabric nodes (one worker each) over
// loopback TCP, plus the HTTP client the load generator uses.
type fleet struct {
	gw      *fabric.Gateway
	srv     *http.Server
	srvDone chan error
	base    string // the gateway's http://host:port
	client  *http.Client
	nodes   []*fleetNode
	wire    atomic.Int64 // bytes moved on gateway↔node connections

	mu   sync.Mutex
	jobs map[int64][2]time.Time // eval seed → job start, end
}

type fleetNode struct {
	exec *serve.Executor
	node *fabric.Node
	done chan error
}

// newFleet starts the nodes and the gateway and waits until the gateway
// can route to every node.
func newFleet(det *yolo.Model) (*fleet, error) {
	f := &fleet{jobs: map[int64][2]time.Time{}}
	addrs := map[string]string{}
	for _, name := range nodeNames {
		n := &fleetNode{done: make(chan error, 1)}
		n.exec = serve.NewExecutor(det, serve.Config{Workers: 1, CacheSize: 128, Job: f.timedJob}, nil)
		n.node = fabric.NewNode(n.exec, fabric.NodeConfig{ID: name})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		addrs[name] = ln.Addr().String()
		go func() { n.done <- n.node.Serve(ln) }()
		f.nodes = append(f.nodes, n)
	}
	dial := func(name string) (net.Conn, error) {
		addr, ok := addrs[name]
		if !ok {
			return nil, fmt.Errorf("unknown node %q", name)
		}
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, n: &f.wire}, nil
	}
	// cmd/gatewayd's defaults, with the fixed-name dialer.
	f.gw = fabric.NewGateway(fabric.GatewayConfig{Nodes: nodeNames, Dial: dial, AttemptTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: f.gw.Handler()}
	f.srvDone = make(chan error, 1)
	go func() { f.srvDone <- f.srv.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: fleetConns, MaxIdleConnsPerHost: fleetConns, DisableCompression: true}}
	for deadline := time.Now().Add(10 * time.Second); !f.routable(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("gateway never reached every node")
		}
	}
	return f, nil
}

// routable asks the gateway's /healthz, as a load balancer would, whether
// every node is available. (Reading the gateway's metric registry instead
// would race with the registrations a node's first connection makes.)
func (f *fleet) routable() bool {
	resp, err := f.client.Get(f.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Nodes map[string]struct{ Available bool }
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return false
	}
	for _, name := range nodeNames {
		if !h.Nodes[name].Available {
			return false
		}
	}
	return true
}

// timedJob is every node's serve.Config.Job: eval.RunJob, with the job's
// wall time noted under its eval seed.
func (f *fleet) timedJob(j eval.Job) (eval.Detail, error) {
	start := time.Now()
	d, err := eval.RunJob(j)
	end := time.Now()
	f.mu.Lock()
	f.jobs[j.Cond.Seed] = [2]time.Time{start, end}
	f.mu.Unlock()
	return d, err
}

func (f *fleet) jobTiming(seed int64) ([2]time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.jobs[seed]
	return t, ok
}

// close stops everything the fleet started and waits for it to end.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.srv != nil {
		_ = f.srv.Shutdown(ctx)
		<-f.srvDone
	}
	if f.gw != nil {
		_ = f.gw.Close(ctx)
	}
	for _, n := range f.nodes {
		_ = n.node.Close(ctx)
		<-n.done
		_ = n.exec.Close(ctx)
	}
}

// countingConn counts the bytes a connection carries in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// plannedReq is one scheduled request; key names the distinct request it
// carries, so repeats share their original's key.
type plannedReq struct {
	key  int
	req  serve.EvalRequest
	body []byte
}

// fleetPayloads returns the base64 patch payloads every request picks from.
func fleetPayloads() ([]string, error) {
	out := make([]string, fleetPatches)
	for i := range out {
		raw, err := attack.EncodePatch(fixedPatch(fleetPatchSeed + int64(i)))
		if err != nil {
			return nil, err
		}
		out[i] = base64.StdEncoding.EncodeToString(raw)
	}
	return out, nil
}

func newPlanned(key int, payload string, evalSeed int64) (plannedReq, error) {
	req := serve.EvalRequest{Patch: payload, Scene: "road", Challenge: fleetChallenge,
		Mode: "digital", Runs: 1, Seed: evalSeed}
	body, err := json.Marshal(req)
	return plannedReq{key: key, req: req, body: body}, err
}

// fleetPlan schedules serve_fleet's traffic: n requests at rate, about a
// quarter of them repeating a request sent at least repeatLag earlier, the
// rest fresh (a patch and an eval seed no other request uses). Fresh
// requests take the patches in rounds of a seeded random order, so every
// seed loads each node with the same share of fresh jobs.
func fleetPlan(seed int64, payloads []string, n int, rate float64) ([]plannedReq, error) {
	rng := rand.New(rand.NewSource(seed))
	lag := int(repeatLag.Seconds() * rate)
	order := rng.Perm(len(payloads))
	var plan, fresh []plannedReq
	for i := 0; i < n; i++ {
		eligible := 0
		for eligible < len(fresh) && fresh[eligible].key <= i-lag {
			eligible++
		}
		if rng.Float64() < repeatShare && eligible > 0 {
			plan = append(plan, fresh[rng.Intn(eligible)])
			continue
		}
		p, err := newPlanned(i, payloads[order[len(fresh)%len(order)]], seed*1_000_000+int64(i))
		if err != nil {
			return nil, err
		}
		plan = append(plan, p)
		fresh = append(fresh, p)
	}
	return plan, nil
}

// post sends one planned request and fills in its timing.
func (f *fleet) post(p plannedReq, t *reqTiming) {
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { t.gotConn = time.Now() }}
	ctx := httptrace.WithClientTrace(context.Background(), trace)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/v1/evaluate", bytes.NewReader(p.body))
	if err != nil {
		t.err, t.done = err, time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		t.err, t.done = err, time.Now()
		return
	}
	t.body, t.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	t.status = resp.StatusCode
	t.done = time.Now()
}

// fleetCounters is a snapshot of the counters the per-layer metrics are
// deltas of.
type fleetCounters struct {
	hits, misses, rejected, retries, wire, queueWaitS float64
	jobs                                              []float64 // fresh jobs per node
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, n := range f.nodes {
		reg := n.exec.Metrics()
		m := counterSum(reg, "serve_cache_misses_total")
		c.hits += counterSum(reg, "serve_cache_hits_total")
		c.misses += m
		c.jobs = append(c.jobs, m)
		c.rejected += counterSum(reg, "serve_rejected_total")
		c.queueWaitS += n.exec.StageStats()[serve.StageQueueWait].Sum
	}
	c.retries = counterSum(f.gw.Metrics(), "fabric_gateway_retries_total")
	c.wire = float64(f.wire.Load())
	return c
}

func runServeFleet(o options, r *report) error {
	payloads, err := fleetPayloads()
	if err != nil {
		return err
	}
	plan, err := fleetPlan(o.seed, payloads, int(o.seconds*serveFleetRate), serveFleetRate)
	if err != nil {
		return err
	}
	det := newDetector()
	f, err := setUp(r, fleetSetups, func() (*fleet, error) { return newFleet(det) }, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()
	return driveFleet(o, r, f, det, plan)
}

// driveFleet offers plan to the fleet at serveFleetRate, checks every
// answer against a local executor, and reports the latency of the answers
// computed fresh; cache hits are counted but never pooled with them.
func driveFleet(o options, r *report, f *fleet, det *yolo.Model, plan []plannedReq) error {
	const rate = serveFleetRate
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	before := f.counters()
	start := time.Now().Add(50 * time.Millisecond)
	ts := openLoop(start, time.Duration(float64(time.Second)/rate), len(plan), func(i int, rt *reqTiming) {
		f.post(plan[i], rt)
	})
	after := f.counters()
	r.peakMB = peakRSSMB()

	want, err := reference(det, plan)
	if err != nil {
		return err
	}
	var hitLat []float64
	var last time.Time
	hitCount, missCount := 0, 0
	for i := range ts {
		rt := &ts[i]
		r.attempted++
		if rt.done.After(last) {
			last = rt.done
		}
		if rt.err != nil || rt.status != http.StatusOK {
			r.failed++
			r.notes["error"] = fmt.Sprintf("status %d: %v", rt.status, rt.err)
			continue
		}
		if !bytes.Equal(uncached(rt.body), want[plan[i].key]) {
			r.failed++
			r.notes["error"] = fmt.Sprintf("request %d: body differs from a local serve.Executor's", i)
			continue
		}
		r.units++
		lat := ms(rt.latency())
		if isCached(rt.body) {
			hitCount++
			hitLat = append(hitLat, lat)
		} else {
			missCount++
			r.samples = append(r.samples, lat)
		}
	}
	r.window = last.Sub(start)
	p50, maxLate, keptUp := generatorLateness(ts)
	r.notes["offered_rate_per_s"] = rate
	r.notes["connections"] = fleetConns
	r.notes["requests"] = len(plan)
	r.notes["cache_hits"] = hitCount
	r.notes["cache_misses"] = missCount
	r.notes["lateness_p50_ms"] = p50
	r.notes["lateness_max_ms"] = maxLate
	if !keptUp {
		r.invalid = fmt.Sprintf("generator fell behind: lateness p50 %.2f ms, max %.2f ms", p50, maxLate)
	}
	r.notes["node_share_max"] = shareMax(before.jobs, after.jobs)
	if o.trace {
		return fleetLayers(o, r, tr, f, plan, ts, before, after, hitLat)
	}
	return nil
}

// cachedTail ends an /v1/evaluate answer served from a node's cache.
var cachedTail = []byte(`"cached":true}`)

func isCached(body []byte) bool { return bytes.HasSuffix(bytes.TrimSpace(body), cachedTail) }

// uncached normalises a response body's cache flag, so a cached answer
// compares equal to the freshly computed one.
func uncached(body []byte) []byte {
	return bytes.Replace(body, cachedTail, []byte(`"cached":false}`), 1)
}

// reference answers every distinct planned request on a local
// serve.Executor and encodes each answer as a fabric node does.
func reference(det *yolo.Model, plan []plannedReq) (map[int][]byte, error) {
	distinct := map[int]serve.EvalRequest{}
	for _, p := range plan {
		distinct[p.key] = p.req
	}
	exec := serve.NewExecutor(det, serve.Config{Workers: fleetConns}, nil)
	defer func() { _ = exec.Close(context.Background()) }()
	type answer struct {
		key  int
		body []byte
		err  error
	}
	keys := make(chan int)
	answers := make(chan answer)
	var wg sync.WaitGroup
	for w := 0; w < fleetConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				resp, err := exec.Evaluate(context.Background(), distinct[k])
				var buf bytes.Buffer
				if err == nil {
					err = json.NewEncoder(&buf).Encode(resp)
				}
				answers <- answer{k, buf.Bytes(), err}
			}
		}()
	}
	go func() {
		for k := range distinct {
			keys <- k
		}
		close(keys)
		wg.Wait()
		close(answers)
	}()
	out := map[int][]byte{}
	var firstErr error
	for a := range answers {
		if a.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("reference evaluation: %w", a.err)
		}
		out[a.key] = a.body
	}
	return out, firstErr
}

// shareMax is the busiest node's share of the fresh jobs the nodes ran
// between two counter snapshots.
func shareMax(before, after []float64) float64 {
	total, busiest := 0.0, 0.0
	for i := range after {
		d := after[i] - before[i]
		total += d
		if d > busiest {
			busiest = d
		}
	}
	if total == 0 {
		return 0
	}
	return busiest / total
}

// fleetLayers turns a traced fleet run into per-layer metrics per fresh
// answer. Each fresh request is a root span from its due time to its
// answer, with the wait for a client connection and the node's eval job
// as children; the executor's queue wait comes from its stage histogram,
// and what remains is the HTTP edge, the gateway's routing and the fabric
// round trip.
func fleetLayers(o options, r *report, t *tracer, f *fleet, plan []plannedReq, ts []reqTiming,
	before, after fleetCounters, hitLat []float64) error {
	count := 0
	for i := range ts {
		rt := &ts[i]
		if rt.err != nil || rt.status != http.StatusOK || isCached(rt.body) {
			continue
		}
		count++
		root := t.record("fleet.request", 0, rt.due, rt.done)
		t.record("fleet.client_wait_ms", root, rt.due, rt.gotConn)
		if job, ok := f.jobTiming(plan[i].req.Seed); ok && !job[0].Before(rt.gotConn) && !job[1].After(rt.done) {
			t.record("eval.job_ms", root, job[0], job[1])
		}
	}
	if count == 0 {
		return errors.New("no fresh answers")
	}
	b, err := reconcile(t.snapshot(), "fleet.request")
	if err != nil {
		return err
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(count) }
	queueWait := (after.queueWaitS - before.queueWaitS) * 1000 / float64(count)
	r.layers["fleet.traced_ms"] = per(b.Whole)
	for name, d := range b.Layers {
		r.layers[name] = per(d)
	}
	r.layers["serve.queue_wait_ms"] = queueWait
	r.layers["fabric.overhead_ms"] = per(b.Unattributed) - queueWait
	r.layers["serve.hit_p50_ms"] = median(hitLat)
	if lookups := (after.hits - before.hits) + (after.misses - before.misses); lookups > 0 {
		r.layers["serve.cache_hit_ratio"] = (after.hits - before.hits) / lookups
	}
	r.layers["serve.rejected"] = after.rejected - before.rejected
	r.layers["fabric.retries"] = after.retries - before.retries
	r.layers["fabric.bytes_per_req"] = (after.wire - before.wire) / float64(len(ts))
	r.layers["fabric.node_share_max"] = shareMax(before.jobs, after.jobs)
	return writeTrace(o, r, t)
}
