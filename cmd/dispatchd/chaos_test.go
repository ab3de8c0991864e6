package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/sim"
)

// hardenedServer builds the same handler chain main() installs:
// recovery → body limit → mux, with an event buffer attached.
func hardenedServer(t *testing.T) *httptest.Server {
	t.Helper()
	taxis := []fleet.Taxi{
		{ID: 0, Pos: geo.Point{X: 10, Y: 10}},
		{ID: 1, Pos: geo.Point{X: 11, Y: 10}},
	}
	events := newEventBuffer(1000)
	s, err := sim.New(sim.Config{
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
		SpeedKmH:   60,
		Events:     events,
	}, taxis, nil)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	srv := newServer(s).withEvents(events)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(withRecovery(logger, nil, withBodyLimit(srv.handler())))
	t.Cleanup(ts.Close)
	return ts
}

func doRequest(t *testing.T, method, url string, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestDeleteRequestCancels(t *testing.T) {
	ts := hardenedServer(t)

	// Pickup 10 km out so a couple of ticks leave it assigned, not done.
	resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 20, Y: 10},
		Dropoff: pointJSON{X: 25, Y: 10},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	created := decode[requestOut](t, resp)
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 2})

	url := fmt.Sprintf("%s/v1/requests/%d", ts.URL, created.ID)
	resp = doRequest(t, http.MethodDelete, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	out := decode[map[string]any](t, resp)
	if out["status"] != "cancelled" {
		t.Errorf("delete body = %v", out)
	}

	// The status endpoint agrees, and a second delete conflicts.
	resp = doRequest(t, http.MethodGet, url, "")
	if st := decode[requestStatusOut](t, resp); st.Status != "cancelled" {
		t.Errorf("status after delete = %q, want cancelled", st.Status)
	}
	if resp = doRequest(t, http.MethodDelete, url, ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("double delete status = %d, want 409", resp.StatusCode)
	}
}

func TestDeleteRequestErrors(t *testing.T) {
	ts := hardenedServer(t)
	if resp := doRequest(t, http.MethodDelete, ts.URL+"/v1/requests/404", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown = %d, want 404", resp.StatusCode)
	}

	// A completed ride is no longer cancellable.
	resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	created := decode[requestOut](t, resp)
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 10})
	url := fmt.Sprintf("%s/v1/requests/%d", ts.URL, created.ID)
	if resp := doRequest(t, http.MethodDelete, url, ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("delete completed = %d, want 409", resp.StatusCode)
	}
}

func TestChaosEndpoint(t *testing.T) {
	ts := hardenedServer(t)

	resp := postJSON(t, ts.URL+"/v1/chaos", chaosIn{Kind: "outage", TaxiID: 0, Frames: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outage status = %d", resp.StatusCode)
	}
	out := decode[map[string]any](t, resp)
	if out["kind"] != "outage" || out["to"].(float64) != 5 {
		t.Errorf("outage body = %v", out)
	}

	resp = postJSON(t, ts.URL+"/v1/chaos", chaosIn{Kind: "breakdown", TaxiID: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breakdown status = %d", resp.StatusCode)
	}
	// Both taxis are now dark: a new request must stay pending.
	resp = postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	created := decode[requestOut](t, resp)
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 3})
	resp = doRequest(t, http.MethodGet, fmt.Sprintf("%s/v1/requests/%d", ts.URL, created.ID), "")
	if st := decode[requestStatusOut](t, resp); st.Status != "pending" {
		t.Errorf("status with whole fleet dark = %q, want pending", st.Status)
	}

	if resp := postJSON(t, ts.URL+"/v1/chaos", chaosIn{Kind: "meteor", TaxiID: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind status = %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/chaos", chaosIn{Kind: "breakdown", TaxiID: 42}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown taxi status = %d, want 404", resp.StatusCode)
	}
}

// TestStrictPathIDs pins the strconv.Atoi parsing: trailing junk after
// the numeric ID is a 400, not a silent truncation to the prefix.
func TestStrictPathIDs(t *testing.T) {
	ts := hardenedServer(t)
	for _, tt := range []struct{ method, path string }{
		{http.MethodGet, "/v1/requests/12abc"},
		{http.MethodGet, "/v1/requests/0x1f"},
		{http.MethodDelete, "/v1/requests/12abc"},
	} {
		if resp := doRequest(t, tt.method, ts.URL+tt.path, ""); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400", tt.method, tt.path, resp.StatusCode)
		}
	}
	if resp := doRequest(t, http.MethodGet, ts.URL+"/v1/events?since=abc", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since = %d, want 400", resp.StatusCode)
	}
}

func TestRecoveryMiddlewareConvertsPanics(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := withRecovery(logger, nil, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	before := obsHTTPPanics.Value()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/taxis", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Errorf("body = %q", rec.Body.String())
	}
	if obsHTTPPanics.Value() != before+1 {
		t.Error("http_panics_total not incremented")
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts := hardenedServer(t)
	// One giant JSON string token: syntactically fine, so the decoder
	// keeps reading until MaxBytesReader cuts it off.
	huge := append(append([]byte(`{"pickup":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1)...), '"', '}')
	resp, err := http.Post(ts.URL+"/v1/requests", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}
