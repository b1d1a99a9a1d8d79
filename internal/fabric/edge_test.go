package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/serve"
)

// spanNameSink records the name of every span started on a trace.
type spanNameSink struct {
	mu    sync.Mutex
	names []string
}

func (s *spanNameSink) Emit(r *obs.Record) {
	if r.Kind != "span_start" {
		return
	}
	s.mu.Lock()
	s.names = append(s.names, r.Str("name"))
	s.mu.Unlock()
}

func (s *spanNameSink) Flush() error { return nil }

func (s *spanNameSink) all() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names...)
}

// TestHTTPEdgeBytes pins the HTTP edge that servd and gatewayd share: the
// exact status, Content-Type, Retry-After and body bytes of their error
// and health replies, the request metric series, and the request span
// names. The gateway has no nodes, so every row is answered at the edge.
func TestHTTPEdgeBytes(t *testing.T) {
	serveSpans, gwSpans := &spanNameSink{}, &spanNameSink{}
	s := serve.New(fabricDetector(), serve.Config{
		Workers: 1, QueueSize: 1,
		Job:   func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil },
		Trace: obs.New(serveSpans, obs.NewLogicalClock()),
	})
	g := NewGateway(GatewayConfig{
		Clock: newFakeClock(), RetryBackoff: time.Millisecond,
		Trace: obs.New(gwSpans, obs.NewLogicalClock()),
	})
	handlers := map[string]http.Handler{"servd": s.Handler(), "gatewayd": g.Handler()}

	const (
		js    = "application/json"
		valid = `{"scene":"road","challenge":"fix","target":2}`
		moon  = `{"scene":"moon","challenge":"fix","target":2}`
	)
	type row struct {
		srv, method, path, body string
		closed                  bool // sent after drain/close
		status                  int
		ctype, retryAfter, want string
	}
	rows := []row{
		{"servd", "GET", "/v1/evaluate", "", false, 405, js, "",
			`{"error":"POST required","code":"method_not_allowed"}`},
		{"servd", "GET", "/v1/detect", "", false, 405, js, "",
			`{"error":"POST required","code":"method_not_allowed"}`},
		{"servd", "POST", "/v1/evaluate", "{", false, 400, js, "",
			`{"error":"bad JSON: unexpected EOF","code":"bad_request"}`},
		{"servd", "POST", "/v1/evaluate", moon, false, 400, js, "",
			`{"error":"serve: bad request: unknown scene \"moon\" (want road or sim)","code":"bad_request"}`},
		{"servd", "POST", "/v1/detect", "{", false, 400, js, "",
			`{"error":"bad JSON: unexpected EOF","code":"bad_request"}`},
		{"servd", "POST", "/v1/detect", `{"height":4,"width":4,"image":[1,2]}`, false, 400, js, "",
			`{"error":"serve: bad request: image has 2 values, want 3*4*4 = 48","code":"bad_request"}`},
		{"gatewayd", "GET", "/v1/evaluate", "", false, 405, js, "",
			`{"error":"POST required","code":"method_not_allowed"}`},
		{"gatewayd", "POST", "/v1/evaluate", "{", false, 400, js, "",
			`{"error":"bad JSON: unexpected EOF","code":"bad_request"}`},
		{"gatewayd", "POST", "/v1/evaluate", moon, false, 400, js, "",
			`{"error":"unknown scene \"moon\" (want road or sim)","code":"bad_request"}`},
		{"gatewayd", "POST", "/v1/jobs", "{", false, 400, js, "",
			`{"error":"bad JSON: unexpected EOF","code":"bad_request"}`},
		{"gatewayd", "POST", "/v1/jobs", moon, false, 400, js, "",
			`{"error":"unknown scene \"moon\" (want road or sim)","code":"bad_request"}`},
		{"gatewayd", "GET", "/v1/jobs/nope", "", false, 404, js, "",
			`{"error":"unknown job nope","code":"not_found"}`},
		{"gatewayd", "POST", "/v1/evaluate", valid, false, 503, js, "1",
			`{"error":"fabric: job failed after 3 attempts: fabric: no live backends","code":"unavailable"}`},

		{"servd", "GET", "/healthz", "", true, 503, js, "",
			`{"cached_results":0,"draining":true,"queue_capacity":1,"queue_depth":0,"status":"draining","workers":1}`},
		{"servd", "POST", "/v1/evaluate", valid, true, 503, js, "",
			`{"error":"serve: shutting down","code":"shutting_down"}`},
		{"gatewayd", "GET", "/healthz", "", true, 503, js, "",
			`{"draining":true,"nodes":{},"ring_nodes":0,"status":"draining"}`},
		{"gatewayd", "POST", "/v1/jobs", valid, true, 503, js, "",
			`{"error":"fabric: gateway shut down","code":"shutting_down"}`},
	}

	send := func(srv, method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		handlers[srv].ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	check := func(closed bool) {
		t.Helper()
		for _, r := range rows {
			if r.closed != closed {
				continue
			}
			rec := send(r.srv, r.method, r.path, r.body)
			name := r.srv + " " + r.method + " " + r.path + " " + r.body
			if rec.Code != r.status {
				t.Errorf("%s: status %d, want %d", name, rec.Code, r.status)
			}
			if got := rec.Header().Get("Content-Type"); got != r.ctype {
				t.Errorf("%s: Content-Type %q, want %q", name, got, r.ctype)
			}
			if got := rec.Header().Get("Retry-After"); got != r.retryAfter {
				t.Errorf("%s: Retry-After %q, want %q", name, got, r.retryAfter)
			}
			if got := rec.Body.String(); got != r.want+"\n" {
				t.Errorf("%s: body\n got %q\nwant %q", name, got, r.want+"\n")
			}
		}
	}

	check(false)
	for srv, want := range map[string][]string{
		"servd": {
			"# HELP serve_request_seconds request latency by endpoint\n",
			`serve_request_seconds_count{endpoint="evaluate"} 3` + "\n",
			`serve_request_seconds_count{endpoint="detect"} 3` + "\n",
			"# HELP serve_requests_total requests by endpoint and status code\n",
			`serve_requests_total{code="405",endpoint="evaluate"} 1` + "\n",
			`serve_requests_total{code="400",endpoint="evaluate"} 2` + "\n",
			`serve_requests_total{code="400",endpoint="detect"} 2` + "\n",
		},
		"gatewayd": {
			"# HELP fabric_gateway_request_seconds request latency by endpoint\n",
			`fabric_gateway_request_seconds_count{endpoint="evaluate"} 4` + "\n",
			`fabric_gateway_request_seconds_count{endpoint="jobs_submit"} 2` + "\n",
			"# HELP fabric_gateway_requests_total requests by endpoint and status code\n",
			`fabric_gateway_requests_total{code="405",endpoint="evaluate"} 1` + "\n",
			`fabric_gateway_requests_total{code="400",endpoint="evaluate"} 2` + "\n",
			`fabric_gateway_requests_total{code="503",endpoint="evaluate"} 1` + "\n",
			`fabric_gateway_requests_total{code="400",endpoint="jobs_submit"} 2` + "\n",
			`fabric_gateway_requests_total{code="404",endpoint="jobs_poll"} 1` + "\n",
		},
	} {
		text := send(srv, "GET", "/metrics", "").Body.String()
		for _, w := range want {
			if !strings.Contains(text, w) {
				t.Errorf("%s /metrics missing %q", srv, w)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	check(true)

	for srv, sink := range map[string]*spanNameSink{"servd": serveSpans, "gatewayd": gwSpans} {
		want := map[string]string{"servd": "request", "gatewayd": "gateway_request"}[srv]
		names := sink.all()
		if len(names) == 0 || names[0] != want {
			t.Errorf("%s: first span %v, want %q", srv, names, want)
		}
	}
}
