package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/slo"
)

// sloTestServer builds a two-taxi daemon with one backlog objective
// tight enough to breach the moment requests queue and recover two
// clean frames later.
func sloTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	def, err := slo.ParseLine("backlog: queued == 0 fast=1 slow=1 clear=2")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.New([]slo.Def{def})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SLO = eng
	ts, _ := startServer(t, cfg)
	return ts
}

// getSLOStatus fetches /v1/slo and returns the single objective.
func getSLOStatus(t *testing.T, url string) (sloOut, slo.Status) {
	t.Helper()
	resp, err := http.Get(url + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/slo status = %d", resp.StatusCode)
	}
	out := decode[sloOut](t, resp)
	if !out.Enabled || len(out.Objectives) != 1 {
		t.Fatalf("slo payload = %+v, want enabled with 1 objective", out)
	}
	return out, out.Objectives[0]
}

func TestSLOEndpointBreachThenRecover(t *testing.T) {
	ts := sloTestServer(t)

	if _, st := getSLOStatus(t, ts.URL); st.State != slo.StateOK {
		t.Fatalf("initial state = %q, want ok", st.State)
	}

	// Four requests onto two taxis: the first tick leaves a backlog, so
	// the objective breaches (fast and slow windows are both 1 frame).
	for i := 0; i < 4; i++ {
		resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
			Pickup:  pointJSON{X: 10.5, Y: 10},
			Dropoff: pointJSON{X: 12, Y: 10},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("request %d status = %d", i, resp.StatusCode)
		}
	}
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
	_, st := getSLOStatus(t, ts.URL)
	if st.State != slo.StateBreach || st.Breaches != 1 {
		t.Fatalf("after backlog: state = %q breaches = %d, want breach/1", st.State, st.Breaches)
	}

	// /healthz carries the alert without going unhealthy.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	h := decode[healthOut](t, resp)
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok (a breach is an alert, not death)", h.Status)
	}
	if h.SLO == nil || h.SLO.State != slo.StateBreach || h.SLO.Breaching != 1 {
		t.Errorf("healthz slo = %+v, want breach with 1 breaching", h.SLO)
	}

	// Draining the queue for clear=2 consecutive frames moves the
	// objective to recovered; clear more healthy frames settle it back
	// to ok. Tick one frame at a time so the endpoint is observed in
	// the recovered state before it fades.
	sawRecovered := false
	for i := 0; i < 20 && !sawRecovered; i++ {
		postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
		_, st = getSLOStatus(t, ts.URL)
		switch st.State {
		case slo.StateRecovered:
			sawRecovered = true
		case slo.StateOK:
			t.Fatalf("objective went breach → ok without passing recovered (frame %d)", i)
		}
	}
	if !sawRecovered {
		t.Fatalf("objective never recovered: state = %q fast = %g", st.State, st.Fast)
	}
}

func TestSLOEndpointDisabled(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decode[sloOut](t, resp)
	if out.Enabled || len(out.Objectives) != 0 {
		t.Errorf("no-engine payload = %+v, want disabled and empty", out)
	}
}

func TestDebugBundleEndpoint(t *testing.T) {
	ts := testServer(t)

	// Without a flight recorder the endpoint degrades to 503, not 500.
	resp := postJSON(t, ts.URL+"/v1/debug/bundle", bundleIn{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-recorder status = %d, want 503", resp.StatusCode)
	}

	dir := t.TempDir()
	rec, err := flightrec.New(flightrec.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ = startServer(t, config{
		Taxis:      []fleet.Taxi{{ID: 0, Pos: geo.Point{X: 10, Y: 10}}},
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
		Recorder:   rec,
	})

	resp = postJSON(t, ts.URL+"/v1/debug/bundle", bundleIn{Detail: "during incident 42"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", resp.StatusCode)
	}
	out := decode[bundleOut](t, resp)
	m, err := flightrec.ReadManifest(out.Path)
	if err != nil {
		t.Fatalf("ReadManifest(%s): %v", out.Path, err)
	}
	if m.Trigger.Reason != flightrec.ReasonManual || !m.Trigger.Forced {
		t.Errorf("trigger = %+v, want forced manual", m.Trigger)
	}
	if !strings.Contains(m.Trigger.Detail, "incident 42") {
		t.Errorf("detail %q lost the operator note", m.Trigger.Detail)
	}

	// Manual triggers bypass the cooldown: a second POST bundles too.
	resp = postJSON(t, ts.URL+"/v1/debug/bundle", bundleIn{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second bundle status = %d, want 201", resp.StatusCode)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bundles := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), flightrec.DefaultBundlePrefix) {
			bundles++
		}
	}
	if bundles != 2 {
		t.Errorf("bundle count = %d, want 2", bundles)
	}
}
