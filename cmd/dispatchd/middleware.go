package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/obs"
)

// httpMetrics is one server's request metrics: http_request_seconds
// times every API request end to end across all routes but the
// long-lived stream, http_panics_total counts handler panics converted
// into JSON 500s, and http_requests_total{code=...} counts requests by
// status code.
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
						fmt.Sprintf("HTTP handler panic on %s %s: %v", r.Method, r.URL.Path, p))
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
// A streamPath connection lasts as long as its client listens, so it is
// counted by status code but not timed: its duration is no latency.
func withObs(logger *slog.Logger, metrics *httpMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if r.URL.Path != streamPath {
			metrics.seconds.Observe(elapsed.Seconds())
		}
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

// withJSONRouteErrors answers a request no route matches the way a
// handler answers an error: ServeMux's plain-text 404 and 405 become
// writeError's {"error":…} body with the same status, and a 405 keeps
// the Allow header ServeMux sets.
func withJSONRouteErrors(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, pattern := mux.Handler(r); pattern == "" {
			h.ServeHTTP(&routeErrorWriter{ResponseWriter: w, r: r}, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// routeErrorWriter replaces the plain-text error ServeMux writes for an
// unmatched request with writeError's JSON, keeping its status code and
// Allow header. Anything below 400, such as the redirect of a
// non-canonical path, passes through as ServeMux wrote it.
type routeErrorWriter struct {
	http.ResponseWriter
	r        *http.Request
	wrote    bool
	replaced bool
}

func (w *routeErrorWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	if code < http.StatusBadRequest {
		w.ResponseWriter.WriteHeader(code)
		return
	}
	w.replaced = true
	w.Header().Del("Content-Type")
	w.Header().Del("X-Content-Type-Options")
	writeError(w.ResponseWriter, code, fmt.Errorf("%s %s: %s", w.r.Method, w.r.URL.Path, strings.ToLower(http.StatusText(code))))
}

// Write drops ServeMux's plain-text error body.
func (w *routeErrorWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.replaced {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}
