package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"stabledispatch/internal/dispatch"
)

// FuzzRequestDecode drives arbitrary bytes through the POST
// /v1/requests decoder behind the production middleware chain. The
// handler must never panic and must answer only 201 (accepted), 400
// (malformed), 413 (over the body cap), or 429 (admission queue full —
// nothing drains it during the fuzz run).
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"pickup":{"x":1,"y":2},"dropoff":{"x":3,"y":4},"seats":1}`))
	f.Add([]byte(`{"pickup":{"x":1e308,"y":-1e308},"dropoff":{},"seats":6}`))
	f.Add([]byte(`{"seats":-1}`))
	f.Add([]byte(`{"seats":7}`))
	f.Add([]byte(`{"pickup":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"pickup":{"x":"NaN"}}`))
	f.Add(bytes.Repeat([]byte(`{"pickup":{"x":1}}`), 1000))

	cfg := testConfig()
	cfg.Dispatcher = dispatch.NewGreedy()
	srv, err := newServer(cfg)
	if err != nil {
		f.Fatalf("newServer: %v", err)
	}
	handler := srv.handler
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // a panic fails the fuzz run
		switch rec.Code {
		case http.StatusCreated, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
