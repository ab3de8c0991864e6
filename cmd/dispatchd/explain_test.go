package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// tracingServer builds the 3-taxi daemon the provenance tests read
// decision traces from.
func tracingServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	cfg := testConfig()
	cfg.Taxis = append(cfg.Taxis, fleet.Taxi{ID: 2, Pos: geo.Point{X: 12, Y: 10}})
	return startServer(t, cfg)
}

func getJSON[T any](t *testing.T, url string) (T, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var v T
	if resp.StatusCode == http.StatusOK {
		v = decode[T](t, resp)
	}
	return v, resp.StatusCode
}

// TestExplainEveryRequestE2E drives a multi-frame run and demands the
// acceptance bar: every request's /v1/explain answers with the assigned
// taxi, both preference ranks, and at least one rejected alternative
// with a reason.
func TestExplainEveryRequestE2E(t *testing.T) {
	ts, srv := tracingServer(t)

	// Frame 1: three rivals for three taxis. Frame 2: two more requests
	// while some taxis are still busy.
	var ids []int
	post := func(x float64) {
		resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
			Pickup:  pointJSON{X: x, Y: 10},
			Dropoff: pointJSON{X: x + 2, Y: 10},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create status = %d", resp.StatusCode)
		}
		ids = append(ids, decode[requestOut](t, resp).ID)
	}
	post(10.2)
	post(10.9)
	post(12.1)
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
	post(10.4)
	post(11.6)
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 8})

	for _, id := range ids {
		status, code := getJSON[requestStatusOut](t, fmt.Sprintf("%s/v1/requests/%d", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("request %d status code = %d", id, code)
		}
		ex, code := getJSON[explainOut](t, fmt.Sprintf("%s/v1/explain/%d", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("explain %d status code = %d", id, code)
		}
		if ex.RequestID != id || ex.Status != status.Status {
			t.Errorf("explain %d = %+v, want status %q", id, ex, status.Status)
		}
		if ex.TaxiID != status.TaxiID {
			t.Errorf("explain %d taxi = %d, engine says %d", id, ex.TaxiID, status.TaxiID)
		}
		if status.TaxiID >= 0 {
			if ex.RequestRank < 0 || ex.TaxiRank < 0 {
				t.Errorf("explain %d lacks ranks: %+v", id, ex)
			}
			if ex.AssignFrame < 0 {
				t.Errorf("explain %d lacks assign frame", id)
			}
		}
		if len(ex.Alternatives) == 0 {
			t.Errorf("explain %d has no rejected alternative (3-taxi fleet): %+v", id, ex)
		}
		for _, a := range ex.Alternatives {
			if a.Reason == "" || a.TaxiID < 0 {
				t.Errorf("explain %d alternative lacks reason: %+v", id, a)
			}
			if a.TaxiID == ex.TaxiID {
				t.Errorf("explain %d lists its own taxi as an alternative", id)
			}
		}
		if ex.Summary == "" {
			t.Errorf("explain %d has empty summary", id)
		}

		// The raw trace behind it is the server's own recorder's.
		tr, ok := srv.sim.Tracer().Trace(id)
		if !ok {
			t.Fatalf("no trace recorded for request %d", id)
		}
		if tr.RequestID != id || len(tr.Events) == 0 {
			t.Errorf("trace %d = %+v, want events", id, tr)
		}
	}
}

// TestStabilityEndpointE2E checks the per-frame certificate surface: the
// dispatched frame certifies stable with the right shape, idle frames
// certify trivially, and an injected destabilized matching is served
// with its violating pair.
func TestStabilityEndpointE2E(t *testing.T) {
	ts, srv := tracingServer(t)

	for _, x := range []float64{10.2, 11.4} {
		postJSON(t, ts.URL+"/v1/requests", requestIn{
			Pickup:  pointJSON{X: x, Y: 10},
			Dropoff: pointJSON{X: x + 1, Y: 10},
		})
	}
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 2})

	// Frame 0 dispatched two requests over three idle taxis.
	cert, code := getJSON[dtrace.Certificate](t, ts.URL+"/v1/frames/0/stability")
	if code != http.StatusOK {
		t.Fatalf("stability status code = %d", code)
	}
	if !cert.Stable || len(cert.Violations) != 0 {
		t.Errorf("dispatch frame certified unstable: %+v", cert)
	}
	if cert.Frame != 0 || cert.Requests != 2 || cert.Taxis != 3 || cert.Matched != 2 {
		t.Errorf("certificate shape = %+v", cert)
	}

	// Frame 1 had nothing pending: vacuously stable.
	cert, code = getJSON[dtrace.Certificate](t, ts.URL+"/v1/frames/1/stability")
	if code != http.StatusOK {
		t.Fatalf("idle frame status code = %d", code)
	}
	if !cert.Stable || cert.Matched != 0 {
		t.Errorf("idle frame certificate = %+v", cert)
	}

	// A destabilized matching (injected, as the engine never commits
	// one) is served verbatim with its violating pair.
	srv.sim.Tracer().PutCertificate(&dtrace.Certificate{
		Frame: 77, Requests: 2, Taxis: 2, Matched: 2,
		Violations: []dtrace.BlockingPair{{
			RequestID: 4, TaxiID: 1, Reason: "blocking_pair",
			ReqRank: 0, ReqPartnerRank: 1, TaxiRank: 0, TaxiPartnerRank: 1,
			Detail: "request 4 and taxi 1 prefer each other over their partners",
		}},
		ViolationsTotal: 1,
	})
	cert, code = getJSON[dtrace.Certificate](t, ts.URL+"/v1/frames/77/stability")
	if code != http.StatusOK {
		t.Fatalf("injected frame status code = %d", code)
	}
	if cert.Stable || len(cert.Violations) != 1 {
		t.Fatalf("injected certificate = %+v, want unstable with one pair", cert)
	}
	if v := cert.Violations[0]; v.RequestID != 4 || v.TaxiID != 1 || v.Reason != "blocking_pair" {
		t.Errorf("violating pair = %+v", v)
	}
}

// TestTraceEndpointErrors pins the 400/404 contract of the decision-trace
// routes.
func TestTraceEndpointErrors(t *testing.T) {
	ts, _ := tracingServer(t)

	for path, want := range map[string]int{
		"/v1/explain/xyz":           http.StatusBadRequest,
		"/v1/explain/9999":          http.StatusNotFound,
		"/v1/frames/xyz/stability":  http.StatusBadRequest,
		"/v1/frames/9999/stability": http.StatusNotFound,
		"/v1/frames/-1/stability":   http.StatusNotFound, // valid int, no certificate
		"/v1/frames/1e3/stability":  http.StatusBadRequest,
		"/v1/explain/12abc":         http.StatusBadRequest,
		"/v1/explain/%20":           http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestHealthzCounts checks the extended liveness payload.
func TestHealthzCounts(t *testing.T) {
	ts, _ := tracingServer(t)
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.2, Y: 10},
		Dropoff: pointJSON{X: 15, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})

	h, code := getJSON[healthOut](t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %f", h.UptimeSeconds)
	}
	if h.Frame != 1 {
		t.Errorf("frame = %d, want 1", h.Frame)
	}
	if h.Taxis != 3 {
		t.Errorf("taxis = %d, want 3", h.Taxis)
	}
	if h.Active != 1 {
		t.Errorf("active = %d, want 1 (one en-route rider)", h.Active)
	}
	if h.TaxisIdle != 2 {
		t.Errorf("idle = %d, want 2", h.TaxisIdle)
	}
}
