package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/sim"
)

// testConfig is a daemon over two idle Boston-centre taxis dispatching
// with NSTD-P at 60 km/h (one kilometre per frame).
func testConfig() config {
	return config{
		Taxis: []fleet.Taxi{
			{ID: 0, Pos: geo.Point{X: 10, Y: 10}},
			{ID: 1, Pos: geo.Point{X: 11, Y: 10}},
		},
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
		SpeedKmH:   60,
	}
}

// startServer builds a daemon through newServer, exactly as main does,
// and serves its handler chain.
func startServer(t *testing.T, cfg config) (*httptest.Server, *server) {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ts := httptest.NewServer(srv.handler)
	t.Cleanup(ts.Close)
	return ts, srv
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _ := startServer(t, testConfig())
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestRequestLifecycleOverHTTP(t *testing.T) {
	ts := testServer(t)

	// Submit a ride.
	resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 14, Y: 10},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	created := decode[requestOut](t, resp)

	// Tick a few minutes: the ride gets dispatched and eventually
	// completed (3.5 km at 1 km/min, pickup 0.5 km away).
	resp = postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status = %d", resp.StatusCode)
	}

	statusResp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", ts.URL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer statusResp.Body.Close()
	if statusResp.StatusCode != http.StatusOK {
		t.Fatalf("status code = %d", statusResp.StatusCode)
	}
	status := decode[requestStatusOut](t, statusResp)
	if status.Status != "completed" {
		t.Errorf("status = %q, want completed (%+v)", status.Status, status)
	}
	if status.TaxiID < 0 {
		t.Error("no taxi recorded")
	}

	// The report reflects the ride.
	repResp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer repResp.Body.Close()
	report := decode[reportOut](t, repResp)
	if report.Served != 1 || report.Requests != 1 {
		t.Errorf("report = %+v", report)
	}
	if report.Algorithm != "NSTD-P" {
		t.Errorf("algorithm = %q", report.Algorithm)
	}
	if report.Frame != 10 {
		t.Errorf("frame = %d, want 10", report.Frame)
	}
}

func TestBadInputs(t *testing.T) {
	ts := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/requests", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/requests", requestIn{Seats: 99})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seats status = %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 99999})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge tick status = %d", resp.StatusCode)
	}

	statusResp, err := http.Get(ts.URL + "/v1/requests/xyz")
	if err != nil {
		t.Fatal(err)
	}
	statusResp.Body.Close()
	if statusResp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d", statusResp.StatusCode)
	}

	statusResp, err = http.Get(ts.URL + "/v1/requests/424242")
	if err != nil {
		t.Fatal(err)
	}
	statusResp.Body.Close()
	if statusResp.StatusCode != http.StatusNotFound {
		t.Errorf("missing id status = %d", statusResp.StatusCode)
	}
}

// TestDaemonDispatcherNames pins the -algo names the daemon resolves
// through exp.Dispatcher: every algorithm taxisim runs, case-insensitively.
func TestDaemonDispatcherNames(t *testing.T) {
	for _, name := range []string{
		"nstd-p", "nstd-t", "NSTD-P",
		"greedy", "mincost", "bottleneck",
		"std-p", "std-t", "sarp", "ilp",
	} {
		if _, err := exp.Dispatcher(name, 5); err != nil {
			t.Errorf("exp.Dispatcher(%q): %v", name, err)
		}
	}
	// raii is gone: SARP dispatches identically (package carpool).
	// nstd-c and nstd-m are gone: every frame has one stable matching,
	// so they dispatched as nstd-p (DESIGN.md).
	for _, name := range []string{"nope", "raii", "nstd-c", "nstd-m"} {
		if _, err := exp.Dispatcher(name, 5); err == nil {
			t.Errorf("accepted unknown dispatcher %q", name)
		}
	}
}

func TestEmptyTickDefaultsToOne(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decode[map[string]int](t, resp)
	if out["frame"] != 1 {
		t.Errorf("frame = %d, want 1", out["frame"])
	}
}

func TestRunStartsAndShutsDown(t *testing.T) {
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-taxis", "3", "-city", "nyc", "-algo", "NSTD-P"})
	}()
	// Give the server a moment to install its signal handler, then
	// interrupt the process; run must exit cleanly via Shutdown.
	time.Sleep(200 * time.Millisecond)
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down after interrupt")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-city", "gotham"}); err == nil {
		t.Error("accepted unknown city")
	}
	if err := run([]string{"-algo", "magic"}); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if err := run([]string{"-taxis", "-5"}); err == nil {
		t.Error("accepted negative fleet")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Error("accepted unknown flag")
	}
}

// TestRunRejectsBoundedFlagsBelowMinimum checks each bounded numeric
// flag below its minimum is a usage error rather than a silent switch
// to a default: -intake-queue 0 would become 4096, -max-inflight -3
// unlimited, and -prof-capture-frames 0 the flight recorder's 30.
func TestRunRejectsBoundedFlagsBelowMinimum(t *testing.T) {
	for _, tc := range []struct{ flag, v string }{
		{"-intake-queue", "0"},
		{"-intake-queue", "-1"},
		{"-max-inflight", "-3"},
		{"-prof-capture-frames", "0"},
		{"-prof-capture-frames", "-2"},
	} {
		// The unknown city makes a value that slips past the check
		// fail fast with another error instead of starting the daemon.
		err := run([]string{tc.flag, tc.v, "-city", "gotham"})
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s %s: err = %v, want a usage error naming the flag", tc.flag, tc.v, err)
		}
	}
}

// TestHTTPRequestEventsReachTail drives one ride through the HTTP API
// and reads its lifecycle from the simulator's event tail, the store
// the /v1/stream snapshot serves.
func TestHTTPRequestEventsReachTail(t *testing.T) {
	cfg := testConfig()
	cfg.Taxis = cfg.Taxis[:1]
	ts, srv := startServer(t, cfg)

	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 5})

	events := srv.sim.RecentEvents()
	if len(events) < 3 {
		t.Fatalf("got %d events, want request+assign+pickup at least", len(events))
	}
	if events[0].Kind != sim.EventRequest {
		t.Errorf("first event = %v", events[0].Kind)
	}
}

func TestServerStep(t *testing.T) {
	_, srv := startServer(t, testConfig())
	for i := 0; i < 3; i++ {
		if err := srv.step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if got := srv.sim.Frame(); got != 3 {
		t.Errorf("frame = %d, want 3", got)
	}
}

// TestHealthzInflightSettles pins the admission ledger to the
// simulator's events: once the one admitted request completes,
// /healthz reports nothing in flight.
func TestHealthzInflightSettles(t *testing.T) {
	ts := testServer(t)
	created := decode[requestOut](t, postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	}))
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 5})
	if st, _ := getJSON[requestStatusOut](t, fmt.Sprintf("%s/v1/requests/%d", ts.URL, created.ID)); st.Status != "completed" {
		t.Fatalf("request status = %q, want completed", st.Status)
	}
	h, _ := getJSON[healthOut](t, ts.URL+"/healthz")
	if h.Inflight != 0 || h.IntakeQueue != 0 {
		t.Errorf("healthz inflight %d, intake queue %d after the only request completed; want 0 and 0", h.Inflight, h.IntakeQueue)
	}
}

func TestRunAutoTick(t *testing.T) {
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-taxis", "2", "-auto", "5ms"})
	}()
	time.Sleep(300 * time.Millisecond)
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run with auto ticker did not shut down")
	}
}
