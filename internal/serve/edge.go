package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"roadtrojan/internal/obs"
	"roadtrojan/internal/telemetry"
)

// Instrument returns the request wrapper of one HTTP front. Server and the
// fabric gateway share it, with the other helpers below, so both answer
// the same failure with the same bytes. Each wrapped endpoint observes
// <prefix>_request_seconds and counts <prefix>_requests_total by status
// code in reg, and runs under a span named span on tr. An incoming
// X-Roadtrojan-Trace header joins that span to the caller's trace (a bad
// header is ignored — tracing must never fail a request), and the span
// rides the request context so downstream work can parent its own spans.
func Instrument(reg *telemetry.Registry, tr *obs.Trace, prefix, span string) func(endpoint string, h http.HandlerFunc) http.Handler {
	return func(endpoint string, h http.HandlerFunc) http.Handler {
		hist := reg.Histogram(prefix+"_request_seconds", "request latency by endpoint",
			telemetry.Labels{"endpoint": endpoint}, nil)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sc, _ := obs.ParseSpanContext(r.Header.Get(obs.TraceHeader))
			sp := tr.SpanInContext(sc, span, obs.S("endpoint", endpoint), obs.S("method", r.Method))
			if sp != nil {
				r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
			}
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			h(sw, r)
			sp.End(obs.I("code", sw.code))
			hist.Observe(time.Since(start).Seconds())
			reg.Counter(prefix+"_requests_total", "requests by endpoint and status code",
				telemetry.Labels{"endpoint": endpoint, "code": strconv.Itoa(sw.code)}).Inc()
		})
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// WriteJSON answers with status and v encoded as one JSON line.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and an ErrorResponse carrying msg and
// the machine-readable code.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// DecodePOST is the preamble of a JSON POST endpoint: it decodes the body
// into v and reports true, or answers 405 (not a POST) or 400 (bad JSON)
// and reports false.
func DecodePOST(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}
