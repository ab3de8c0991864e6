package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/obs"
)

// httpMetrics is one server's request metrics: http_request_seconds
// times every API request end to end across all routes,
// http_panics_total counts handler panics converted into JSON 500s, and
// http_requests_total{code=...} counts requests by status code.
type httpMetrics struct {
	seconds *obs.Histogram
	panics  atomic.Uint64
	codes   [1000]atomic.Uint64 // by status code (net/http allows 100–999)
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{seconds: obs.NewHistogram()}
}

// WritePrometheus writes the request metrics to p; a status code
// appears once a request has been answered with it.
func (m *httpMetrics) WritePrometheus(p *obs.Writer) {
	p.Counter("http_panics_total", m.panics.Load())
	p.Histogram("http_request_seconds", m.seconds)
	for code := range m.codes {
		if n := m.codes[code].Load(); n > 0 {
			p.Counter(`http_requests_total{code="`+strconv.Itoa(code)+`"}`, n)
		}
	}
}

// maxBodyBytes caps request bodies; every API payload is a few hundred
// bytes, so a megabyte is generous and keeps a hostile client from
// streaming unbounded JSON into the decoder.
const maxBodyBytes = 1 << 20

// withRecovery converts a handler panic into a JSON 500 instead of
// letting net/http kill the connection, so one poisoned request cannot
// take down an operator's session mid-incident. If the handler already
// wrote a partial response the 500 header is lost, but the panic is
// still logged and counted in metrics' http_panics_total, and it fires
// the flight recorder when one is configured, at the frame reported by
// frame (the daemon's lock-free frame counter: the panicking handler may
// have left the server lock held).
func withRecovery(logger *slog.Logger, rec *flightrec.Recorder, frame func() int64, metrics *httpMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				metrics.panics.Add(1)
				if logger != nil {
					logger.Error("handler panic",
						"method", r.Method, "path", r.URL.Path, "panic", p)
				}
				if rec != nil {
					rec.Trigger(frame(), flightrec.ReasonPanic, //nolint:errcheck // counted by the recorder
						fmt.Sprintf("HTTP handler panic on %s %s: %v", r.Method, r.URL.Path, p), false)
				}
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal server error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withBodyLimit installs http.MaxBytesReader on every request body;
// decodeBody maps the resulting error to 413.
func withBodyLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// statusWriter captures the status code a handler writes so the access
// log and the per-code request counter can report it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying connection's
// Flush and per-write deadline controls through the wrapper; the SSE
// stream handler depends on both.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withObs wraps the API handler with request metrics recorded into
// metrics (http_requests_total{code=...}, http_request_seconds) and,
// when logger is non-nil, one structured access-log line per request.
func withObs(logger *slog.Logger, metrics *httpMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		metrics.seconds.Observe(elapsed.Seconds())
		if uint(sw.status) < uint(len(metrics.codes)) {
			metrics.codes[sw.status].Add(1)
		}
		if logger != nil {
			logger.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration", elapsed,
			)
		}
	})
}
