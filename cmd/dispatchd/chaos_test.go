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
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/sim"
)

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
	ts := testServer(t)

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

// TestDeleteQueuedRequest cancels a request between its 201 and its
// frame boundary: while queued it reads pending, DELETE withdraws it
// (200), it is never dispatched, its in-flight slot settles at once,
// and the rest of the batch joins the frame in admission order.
func TestDeleteQueuedRequest(t *testing.T) {
	ts, srv := startServer(t, testConfig())
	var ids []int
	for _, x := range []float64{10.2, 10.4, 10.6} {
		resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
			Pickup:  pointJSON{X: x, Y: 10},
			Dropoff: pointJSON{X: x + 2, Y: 10},
		})
		ids = append(ids, decode[requestOut](t, resp).ID)
	}
	url := fmt.Sprintf("%s/v1/requests/%d", ts.URL, ids[1])

	st, code := getJSON[requestStatusOut](t, url)
	if code != http.StatusOK || st.Status != "pending" || st.TaxiID != -1 || st.AssignFrame != -1 {
		t.Fatalf("queued request: status %d, %+v; want 200 pending with no taxi", code, st)
	}
	resp := doRequest(t, http.MethodDelete, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete queued request = %d, want 200", resp.StatusCode)
	}
	if st, _ := getJSON[requestStatusOut](t, url); st.Status != "cancelled" {
		t.Errorf("status after delete = %q, want cancelled", st.Status)
	}
	if h, _ := getJSON[healthOut](t, ts.URL+"/healthz"); h.Inflight != 2 || h.IntakeQueue != 2 {
		t.Errorf("healthz inflight %d, intake queue %d after the delete; want 2 and 2", h.Inflight, h.IntakeQueue)
	}

	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 5})
	if st, _ := getJSON[requestStatusOut](t, url); st.Status != "cancelled" || st.TaxiID != -1 || st.AssignFrame != -1 {
		t.Errorf("withdrawn request after ticks = %+v, want cancelled and never assigned", st)
	}
	var released []int
	for _, e := range srv.sim.RecentEvents() {
		if e.RequestID == ids[1] && e.Kind != sim.EventCancel {
			t.Errorf("withdrawn request reached the simulator's frames: %+v", e)
		}
		if e.Kind == sim.EventRequest {
			released = append(released, e.RequestID)
		}
	}
	if len(released) != 2 || released[0] != ids[0] || released[1] != ids[2] {
		t.Errorf("released requests %v, want %v in admission order", released, []int{ids[0], ids[2]})
	}
	if resp := doRequest(t, http.MethodDelete, url, ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("second delete = %d, want 409", resp.StatusCode)
	}
}

func TestDeleteRequestErrors(t *testing.T) {
	ts := testServer(t)
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

// TestStrictPathIDs pins the strconv.Atoi parsing: trailing junk after
// the numeric ID is a 400, not a silent truncation to the prefix.
func TestStrictPathIDs(t *testing.T) {
	ts := testServer(t)
	for _, tt := range []struct{ method, path string }{
		{http.MethodGet, "/v1/requests/12abc"},
		{http.MethodGet, "/v1/requests/0x1f"},
		{http.MethodDelete, "/v1/requests/12abc"},
	} {
		if resp := doRequest(t, tt.method, ts.URL+tt.path, ""); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400", tt.method, tt.path, resp.StatusCode)
		}
	}
}

func TestRecoveryMiddlewareConvertsPanics(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	metrics := newHTTPMetrics()
	h := withRecovery(logger, nil, nil, metrics, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/report", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Errorf("body = %q", rec.Body.String())
	}
	if got := metrics.panics.Load(); got != 1 {
		t.Errorf("http_panics_total = %d, want 1", got)
	}
}

// panicDispatcher matches nothing on its first frame and panics on its
// second: a dispatcher bug inside Step.
type panicDispatcher struct{ calls int }

func (*panicDispatcher) Name() string { return "panic" }

func (d *panicDispatcher) Dispatch(*sim.Frame) ([]fleet.Assignment, error) {
	if d.calls++; d.calls == 2 {
		panic("dispatcher bug")
	}
	return nil, nil
}

// TestTickPanicReleasesLock checks a dispatcher panic inside POST
// /v1/tick, on a daemon without -frame-deadline (so no dispatch.Resilient
// recovers it), becomes a JSON 500 that leaves the server lock free:
// /healthz still answers.
func TestTickPanicReleasesLock(t *testing.T) {
	cfg := testConfig()
	cfg.Dispatcher = &panicDispatcher{}
	ts, _ := startServer(t, cfg)
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	resp := postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 2})
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("tick into a panicking dispatcher: status %d, Content-Type %q; want a JSON 500",
			resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if body := decode[map[string]string](t, resp); body["error"] == "" {
		t.Errorf("500 body %v lacks the error", body)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	health, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after the panic: %v (server lock still held)", err)
	}
	defer health.Body.Close()
	if h := decode[healthOut](t, health); h.Status != "ok" || h.Frame != 1 {
		t.Errorf("healthz after the panic = %+v, want ok at frame 1", h)
	}
}

// TestPanicBundleKeepsCooldown pins the panic trigger to the daemon's
// frame: a panic inside an automatic bundle's cooldown is suppressed like
// any other automatic trigger, instead of bundling at frame -1 and
// re-arming the cooldown as if the run had restarted.
func TestPanicBundleKeepsCooldown(t *testing.T) {
	rec, err := flightrec.New(flightrec.Config{Dir: t.TempDir(), CooldownFrames: 300})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startServer(t, config{
		Taxis:      []fleet.Taxi{{ID: 0}},
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
		Recorder:   rec,
	})
	if _, err := srv.tick(505); err != nil {
		t.Fatal(err)
	}
	h := withRecovery(nil, rec, srv.frameNow.Load, srv.http, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))

	if path, err := rec.Trigger(500, flightrec.ReasonSLOBreach, ""); err != nil || path == "" {
		t.Fatalf("SLO bundle: path=%q err=%v", path, err)
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/report", nil))
	if _, err := rec.Trigger(510, flightrec.ReasonSLOBreach, ""); err != nil {
		t.Fatal(err)
	}
	if rec.Bundles() != 1 || rec.Suppressed() != 2 {
		t.Errorf("bundles = %d, suppressed = %d; want 1 and 2 (the panic and the breach inside the cooldown)",
			rec.Bundles(), rec.Suppressed())
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts := testServer(t)
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
