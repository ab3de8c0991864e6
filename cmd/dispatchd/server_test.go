package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return ledgerServer(t, prof.New(prof.Config{}))
}

// ledgerServer is testServer with the simulator's frame-budget ledger
// chosen by the caller (nil: no profiling).
func ledgerServer(t *testing.T, ld *prof.Ledger) *httptest.Server {
	t.Helper()
	taxis := []fleet.Taxi{
		{ID: 0, Pos: geo.Point{X: 10, Y: 10}},
		{ID: 1, Pos: geo.Point{X: 11, Y: 10}},
	}
	s, err := sim.New(sim.Config{
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
		SpeedKmH:   60,
		Ledger:     ld,
	}, taxis, nil)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	ts := httptest.NewServer(newServer(s).handler())
	t.Cleanup(ts.Close)
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

func TestGetTaxis(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/taxis")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	taxis := decode[[]taxiOut](t, resp)
	if len(taxis) != 2 {
		t.Fatalf("got %d taxis", len(taxis))
	}
	if !taxis[0].Idle || taxis[0].Load != 0 {
		t.Errorf("taxi 0 = %+v", taxis[0])
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

func TestDaemonDispatcherNames(t *testing.T) {
	for _, name := range []string{
		"nstd-p", "nstd-t", "greedy", "mincost", "bottleneck",
		"std-p", "std-t", "raii", "sarp", "ilp",
	} {
		if _, err := daemonDispatcher(name, 5); err != nil {
			t.Errorf("daemonDispatcher(%q): %v", name, err)
		}
	}
	if _, err := daemonDispatcher("nope", 5); err == nil {
		t.Error("accepted unknown dispatcher")
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
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-taxis", "3"})
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

func TestEventsEndpoint(t *testing.T) {
	taxis := []fleet.Taxi{{ID: 0, Pos: geo.Point{X: 10, Y: 10}}}
	buffer := newEventBuffer(100)
	s, err := sim.New(sim.Config{
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
		SpeedKmH:   60,
		Events:     buffer,
	}, taxis, nil)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	ts := httptest.NewServer(newServer(s).withEvents(buffer).handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 5})

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := decode[[]sim.Event](t, resp)
	if len(events) < 3 {
		t.Fatalf("got %d events, want request+assign+pickup at least", len(events))
	}
	if events[0].Kind != sim.EventRequest {
		t.Errorf("first event = %v", events[0].Kind)
	}

	// Filtering by frame.
	resp2, err := http.Get(ts.URL + "/v1/events?since=99")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if late := decode[[]sim.Event](t, resp2); len(late) != 0 {
		t.Errorf("since=99 returned %v", late)
	}

	resp3, err := http.Get(ts.URL + "/v1/events?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since status = %d", resp3.StatusCode)
	}
}

func TestEventsEndpointWithoutBuffer(t *testing.T) {
	ts := testServer(t) // no withEvents
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if events := decode[[]sim.Event](t, resp); len(events) != 0 {
		t.Errorf("events = %v, want empty", events)
	}
}

func TestEventBufferEviction(t *testing.T) {
	b := newEventBuffer(3)
	for i := 0; i < 5; i++ {
		b.Record(sim.Event{Frame: i})
	}
	got := b.Since(0)
	if len(got) != 3 || got[0].Frame != 2 {
		t.Errorf("Since = %v, want frames 2..4", got)
	}
}

func TestServerStep(t *testing.T) {
	taxis := []fleet.Taxi{{ID: 0}}
	s, err := sim.New(sim.Config{
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
	}, taxis, nil)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	srv := newServer(s)
	for i := 0; i < 3; i++ {
		if err := srv.step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if got := s.Frame(); got != 3 {
		t.Errorf("frame = %d, want 3", got)
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
