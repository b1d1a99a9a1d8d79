// Package serve is the concurrent patch-evaluation service: the paper's
// render → detect → PWC/CWC loop behind an HTTP API. The execution core
// lives in Executor — a fixed-size worker pool owning one deep-cloned
// detector replica per worker (internal/nn modules cache activations during
// Forward, so a shared model is not reentrant), a bounded job queue that
// applies backpressure with 429s instead of unbounded latency, and an LRU
// cache that short-circuits repeated evaluations of the same (patch, scene,
// challenge, seed) tuple. Server is the HTTP transport over that core;
// internal/fabric's node is the framed-protocol transport over the same
// core. internal/telemetry exposes counters/gauges/latency histograms on
// GET /metrics.
//
// Endpoints:
//
//	POST /v1/detect    one rendered frame → decoded detections
//	POST /v1/evaluate  patch + scene + challenge → per-frame results, PWC, CWC
//	GET  /healthz      liveness + queue occupancy
//	GET  /metrics      Prometheus text exposition
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"roadtrojan/internal/clock"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/telemetry"
	"roadtrojan/internal/yolo"
)

// Config tunes the service.
type Config struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueSize bounds the job queue; 0 means 2×Workers. A full queue
	// rejects with 429.
	QueueSize int
	// CacheSize is the evaluation result cache capacity in entries;
	// 0 means 128, negative disables caching.
	CacheSize int
	// CacheBytes bounds the result cache by estimated payload bytes, so a
	// few large batched results can't blow memory even when the entry count
	// is small; 0 means 64 MiB, negative means entries-only accounting.
	CacheBytes int64
	// BatchSize enables micro-batched serving when > 1: concurrent
	// evaluate/detect requests coalesce in front of the executor and flush
	// as one batch when BatchSize requests are parked or BatchDeadline has
	// elapsed since the first. 0 or 1 serves requests one at a time (the
	// pre-batching behavior).
	BatchSize int
	// BatchDeadline is the longest the first parked request waits for its
	// batch to fill; 0 means 2ms.
	BatchDeadline time.Duration
	// Clock injects time for the coalescer deadline (tests); nil means the
	// wall clock.
	Clock clock.Clock
	// JobTimeout is the per-job context deadline; 0 means 2 minutes.
	JobTimeout time.Duration
	// Job evaluates one scenario. Nil means eval.RunJob; tests inject
	// stubs to exercise queueing without rendering.
	Job eval.JobFunc
	// Trace receives one span per HTTP request (nil = no tracing). Serving
	// spans should use a wall clock: obs.New(sink, obs.WallClock()).
	Trace *obs.Trace
	// EnablePprof mounts net/http/pprof under /debug/pprof on the service
	// mux. Off by default: the profiler exposes internals and should only
	// be reachable when explicitly requested (cmd/servd -pprof).
	EnablePprof bool
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config { return Config{} }

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 2 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.BatchDeadline <= 0 {
		c.BatchDeadline = 2 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = clock.Wall()
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.Job == nil {
		c.Job = eval.RunJob
	}
}

// Server is the HTTP transport over an Executor.
type Server struct {
	exec    *Executor
	reg     *telemetry.Registry
	ownExec bool
	httpSrv *http.Server
}

// New builds the service around a trained detector, cloning one replica per
// worker and starting the pool. The caller keeps ownership of det; the
// server never runs inference on it. The executor is owned: Shutdown drains
// it.
func New(det *yolo.Model, cfg Config) *Server {
	s := NewWith(NewExecutor(det, cfg, nil))
	s.ownExec = true
	return s
}

// NewWith wraps an existing executor — the path cmd/servd uses to share one
// pool between the HTTP server and a fabric node — and serves with the
// executor's Config. The caller keeps ownership of exec: Shutdown stops the
// listener but does not drain the pool.
func NewWith(exec *Executor) *Server {
	return &Server{exec: exec, reg: exec.Metrics()}
}

// Handler returns the service mux (for embedding or tests).
func (s *Server) Handler() http.Handler {
	in := Instrument(s.reg, s.exec.cfg.Trace, "serve", "request")
	mux := http.NewServeMux()
	mux.Handle("/v1/detect", in("detect", handleExec(s, s.exec.Detect)))
	mux.Handle("/v1/evaluate", in("evaluate", handleExec(s, s.exec.Evaluate)))
	mux.Handle("/healthz", in("healthz", s.handleHealthz))
	mux.Handle("/metrics", s.reg.Handler())
	if s.exec.cfg.EnablePprof {
		obs.RegisterPprof(mux)
	}
	return mux
}

// Metrics exposes the registry (for tests and embedding).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.Handler()}
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}

// Shutdown drains gracefully: stop accepting, let in-flight handlers finish
// (bounded by ctx), then — when the executor is owned — close the queue and
// wait for the workers to empty it. Safe to call once; submissions return
// ErrShuttingDown afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	var httpErr error
	if s.httpSrv != nil {
		httpErr = s.httpSrv.Shutdown(ctx)
	}
	if s.ownExec {
		_ = s.exec.Close(ctx)
	}
	return httpErr
}

// writeExecError maps executor errors to HTTP statuses. Queue-full
// rejections carry a Retry-After hint sized from the observed job rate, so
// well-behaved clients (and the fabric gateway's backpressure path) know
// when capacity is likely back.
func (s *Server) writeExecError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.exec.RetryAfterSeconds()))
		WriteError(w, http.StatusTooManyRequests, CodeQueueFull, err.Error())
	case errors.Is(err, ErrShuttingDown):
		WriteError(w, http.StatusServiceUnavailable, CodeShuttingDown, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		WriteError(w, http.StatusGatewayTimeout, CodeTimeout, err.Error())
	default:
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// handleExec serves one JSON POST endpoint through an executor call:
// /v1/detect (one frame through a worker's detector replica) and
// /v1/evaluate (a full scenario evaluation, repeats served from the LRU
// cache).
func handleExec[Req, Resp any](s *Server, call func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !DecodePOST(w, r, &req) {
			return
		}
		resp, err := call(r.Context(), req)
		if err != nil {
			s.writeExecError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

func detailToResponse(d eval.Detail) EvalResponse {
	return EvalResponse{
		PWC:        d.Score.PWC,
		CWC:        d.Score.CWC,
		Frames:     d.Score.Frames,
		WrongRun:   d.Score.WrongRun,
		DetectRate: d.Score.DetectRate,
		Runs:       toWireFrames(d.Runs),
	}
}

// handleHealthz is the readiness probe: liveness plus queue occupancy while
// serving, 503 with status "draining" once shutdown has begun — so load
// balancers stop routing to a node that will refuse its submissions.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	if s.exec.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"status":         status,
		"draining":       s.exec.Draining(),
		"workers":        s.exec.Workers(),
		"queue_depth":    s.exec.QueueDepth(),
		"queue_capacity": s.exec.QueueCapacity(),
		"cached_results": s.exec.CachedResults(),
	})
}
