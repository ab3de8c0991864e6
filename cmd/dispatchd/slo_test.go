package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// sloState reads the objective's alert state through /healthz's slo
// block and its breach count through /v1/metrics.
func sloState(t *testing.T, url string) (*sloHealth, float64) {
	t.Helper()
	h, code := getJSON[healthOut](t, url+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz status = %d", code)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok (a breach is an alert, not death)", h.Status)
	}
	if h.SLO == nil || h.SLO.Total != 1 {
		t.Fatalf("healthz slo = %+v, want 1 objective", h.SLO)
	}
	return h.SLO, scrape(t, url)["slo_breaches_total"]
}

func TestSLOEndpointBreachThenRecover(t *testing.T) {
	ts := sloTestServer(t)

	if st, breaches := sloState(t, ts.URL); st.State != slo.StateOK || breaches != 0 {
		t.Fatalf("initial state = %q with %v breaches, want ok and 0", st.State, breaches)
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
	st, breaches := sloState(t, ts.URL)
	if st.State != slo.StateBreach || st.Breaching != 1 || breaches != 1 {
		t.Fatalf("after backlog: healthz slo = %+v, slo_breaches_total = %v; want breach, 1 breaching, 1 breach", st, breaches)
	}

	// Draining the queue for clear=2 consecutive frames moves the
	// objective to recovered; clear more healthy frames settle it back
	// to ok. Tick one frame at a time so /healthz is observed in the
	// recovered state before it fades.
	sawRecovered := false
	for i := 0; i < 20 && !sawRecovered; i++ {
		postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
		st, _ = sloState(t, ts.URL)
		switch st.State {
		case slo.StateRecovered:
			sawRecovered = true
		case slo.StateOK:
			t.Fatalf("objective went breach → ok without passing recovered (frame %d)", i)
		}
	}
	if !sawRecovered {
		t.Fatalf("objective never recovered: healthz slo = %+v", st)
	}
	for i := 0; i < 20 && st.State != slo.StateOK; i++ {
		postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
		st, breaches = sloState(t, ts.URL)
	}
	if st.State != slo.StateOK || st.Breaching != 0 || breaches != 1 {
		t.Errorf("after recovery: healthz slo = %+v, slo_breaches_total = %v; want ok, 0 breaching, still 1 breach", st, breaches)
	}
}

// TestSLOEndpointDisabled checks a daemon without -slo-file exports no
// SLO state: /healthz has no slo block and /v1/metrics no slo_* family.
func TestSLOEndpointDisabled(t *testing.T) {
	ts := testServer(t)
	h, code := getJSON[healthOut](t, ts.URL+"/healthz")
	if code != http.StatusOK || h.SLO != nil {
		t.Errorf("no-engine healthz: status %d, slo %+v; want 200 and no slo block", code, h.SLO)
	}
	for name := range scrape(t, ts.URL) {
		if strings.HasPrefix(name, "slo_") {
			t.Errorf("no-engine metrics export %s", name)
		}
	}
}
