package serve

import (
	"context"
	"time"

	"roadtrojan/internal/clock"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// Micro-batching coalescer. With Config.BatchSize > 1, concurrent requests
// park in a small buffer in front of the executor instead of entering the
// job queue one by one; the buffer flushes as one batch when either
// BatchSize requests are waiting (size flush) or BatchDeadline has elapsed
// since the first request arrived (deadline flush), whichever comes first —
// so an idle service adds at most one deadline of latency to a lone request
// while a busy one amortizes dispatch and, for evaluations, collapses
// duplicate patch digests into a single run. Closing the input channel
// flushes whatever is pending (drain flush) before the run loop exits.

// Flush reasons, used as the serve_batch_flushes_total label.
const (
	flushSize     = "size"
	flushDeadline = "deadline"
	flushDrain    = "drain"
)

// coalescer batches items of one request kind. The zero-goroutine contract:
// items enter through in (the sender handles full-buffer backpressure), one
// run loop owns the pending batch, and flush is called on the run loop
// goroutine — it must dispatch without blocking on results.
type coalescer[T any] struct {
	in    chan T
	done  chan struct{}
	size  int
	wait  time.Duration
	clock clock.Clock
	flush func(batch []T, reason string)
}

func newCoalescer[T any](size, buffer int, wait time.Duration, clk clock.Clock, flush func([]T, string)) *coalescer[T] {
	c := &coalescer[T]{
		in:    make(chan T, buffer),
		done:  make(chan struct{}),
		size:  size,
		wait:  wait,
		clock: clk,
		flush: flush,
	}
	go c.run()
	return c
}

// run owns the pending batch: append on arrival, flush on size, deadline, or
// input close. The deadline timer starts with the batch's first item; a nil
// timer channel blocks forever, which is exactly the idle state.
func (c *coalescer[T]) run() {
	defer close(c.done)
	var batch []T
	var timer <-chan time.Time
	for {
		select {
		case it, ok := <-c.in:
			if !ok {
				if len(batch) > 0 {
					c.flush(batch, flushDrain)
				}
				return
			}
			batch = append(batch, it)
			if len(batch) == 1 {
				timer = c.clock.After(c.wait)
			}
			if len(batch) >= c.size {
				c.flush(batch, flushSize)
				batch, timer = nil, nil
			}
		case <-timer:
			// A timer from an already-flushed batch can fire late; the
			// length guard makes that a no-op.
			if len(batch) > 0 {
				c.flush(batch, flushDeadline)
			}
			batch, timer = nil, nil
		}
	}
}

// close stops intake and waits for the final drain flush to dispatch.
func (c *coalescer[T]) close() {
	close(c.in)
	<-c.done
}

// callResult is one evaluate waiter's outcome.
type callResult struct {
	detail eval.Detail
	cached bool
	err    error
}

// evalCall is one evaluate request parked in the coalescer: its cache key
// (the dedupe identity), the prepared job, and a buffered reply channel so
// fan-out never blocks on a waiter that gave up. parked/traceID feed the
// batch_wait stage histogram.
type evalCall struct {
	key     string
	job     eval.Job
	done    chan callResult
	parked  time.Time
	traceID string
}

// flushEvaluate dispatches one evaluate batch: requests are grouped by cache
// key, each group re-checks the cache (an earlier flush may have filled it
// while these waited), and each remaining unique key becomes exactly one
// pool task whose result fans out to every waiter in the group and fills the
// cache once.
func (e *Executor) flushEvaluate(batch []*evalCall, reason string) {
	e.flushCounter(reason).Inc()
	e.batchOccupancy.Observe(float64(len(batch)))
	now := e.cfg.Clock.Now()
	for _, c := range batch {
		e.observeStage(StageBatchWait, now.Sub(c.parked), c.traceID)
	}
	groups := make(map[string][]*evalCall, len(batch))
	var order []string
	for _, c := range batch {
		if _, ok := groups[c.key]; !ok {
			order = append(order, c.key)
		}
		groups[c.key] = append(groups[c.key], c)
	}
	for _, key := range order {
		g := groups[key]
		if len(g) > 1 {
			e.batchDedup.Add(int64(len(g) - 1))
		}
		if v, ok := e.cache.get(key); ok {
			d := v.(eval.Detail)
			for _, c := range g {
				e.cacheHits.Inc()
				c.done <- callResult{detail: d, cached: true}
			}
			continue
		}
		e.cacheMisses.Inc()
		e.dispatchEvalGroup(key, g)
	}
}

// dispatchEvalGroup enqueues one pool task for a unique cache key and fans
// its result out to the group's waiters. The task runs under its own
// JobTimeout deadline — waiters enforce their individual request contexts on
// their side of the reply channel.
func (e *Executor) dispatchEvalGroup(key string, g []*evalCall) {
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.JobTimeout)
	job := g[0].job
	t := &task{ctx: ctx, done: make(chan taskResult, 1), traceID: g[0].traceID, run: func(det *yolo.Model) (any, error) {
		j := job
		j.Det = det
		return e.cfg.Job(j)
	}}
	if err := e.enqueueTask(t); err != nil {
		cancel()
		for _, c := range g {
			c.done <- callResult{err: err}
		}
		return
	}
	go func() {
		r := <-t.done
		cancel()
		if r.err != nil {
			for _, c := range g {
				c.done <- callResult{err: r.err}
			}
			return
		}
		d := r.v.(eval.Detail)
		e.cache.put(key, d, detailBytes(d))
		for _, c := range g {
			c.done <- callResult{detail: d}
		}
	}()
}

// detectResult is one detect waiter's outcome.
type detectResult struct {
	dets []yolo.Detection
	err  error
}

// detectCall is one detect request parked in the coalescer. span is the
// request's span (the batched forward/decode leaves parent to the first
// caller in each group); parked/traceID feed the batch_wait histogram.
type detectCall struct {
	req     DetectRequest
	done    chan detectResult
	parked  time.Time
	span    *obs.Span
	traceID string
}

// flushDetect dispatches one detect batch: frames are grouped by resolution,
// each group is stacked into a single [N,3,H,W] tensor, and one pool task
// runs one batched forward plus per-sample decode for the whole group — the
// batch-first inference path.
func (e *Executor) flushDetect(batch []*detectCall, reason string) {
	e.flushCounter(reason).Inc()
	e.batchOccupancy.Observe(float64(len(batch)))
	now := e.cfg.Clock.Now()
	for _, c := range batch {
		e.observeStage(StageBatchWait, now.Sub(c.parked), c.traceID)
	}
	type dims struct{ h, w int }
	groups := make(map[dims][]*detectCall, 1)
	var order []dims
	for _, c := range batch {
		d := dims{c.req.Height, c.req.Width}
		if _, ok := groups[d]; !ok {
			order = append(order, d)
		}
		groups[d] = append(groups[d], c)
	}
	for _, d := range order {
		e.dispatchDetectGroup(d.h, d.w, groups[d])
	}
}

// dispatchDetectGroup runs one same-resolution group through a single
// batched forward and fans the per-sample detections back out in request
// order.
func (e *Executor) dispatchDetectGroup(h, w int, g []*detectCall) {
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.JobTimeout)
	frame := 3 * h * w
	pixels := make([]float64, 0, len(g)*frame)
	for _, c := range g {
		pixels = append(pixels, c.req.Image...)
	}
	img := tensor.FromSlice(pixels, len(g), 3, h, w)
	// The batched forward runs once for the whole group; its spans and
	// stage observations attribute to the group's first caller (the request
	// whose arrival opened the batch window).
	lead, hook := g[0].span, e.stageHook(g[0].traceID)
	t := &task{ctx: ctx, done: make(chan taskResult, 1), traceID: g[0].traceID, run: func(det *yolo.Model) (any, error) {
		fsp := lead.Child(StageForward, obs.I("batch", len(g)))
		end := hook(StageForward)
		heads := det.Forward(img)
		end()
		fsp.End()
		dsp := lead.Child(StageDecode, obs.I("batch", len(g)))
		end = hook(StageDecode)
		dets := det.DecodeBatch(heads, yolo.DefaultDecode())
		end()
		dsp.End()
		return dets, nil
	}}
	if err := e.enqueueTask(t); err != nil {
		cancel()
		for _, c := range g {
			c.done <- detectResult{err: err}
		}
		return
	}
	go func() {
		r := <-t.done
		cancel()
		if r.err != nil {
			for _, c := range g {
				c.done <- detectResult{err: r.err}
			}
			return
		}
		lists := r.v.([][]yolo.Detection)
		for i, c := range g {
			c.done <- detectResult{dets: lists[i]}
		}
	}()
}
