package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
)

// TestTracesArePerServer runs two daemon stacks in one process, each
// with its own simulator and trace recorder, and sends traffic to one
// only. The idle stack must answer 404 for every request the busy stack
// explained and every frame it certified; the busy stack serves them
// all.
func TestTracesArePerServer(t *testing.T) {
	busyTS, busy := startServer(t, testConfig())
	idleTS, _ := startServer(t, testConfig())

	var paths []string
	for i := 0; i < 3; i++ {
		resp := postJSON(t, busyTS.URL+"/v1/requests", requestIn{
			Pickup:  pointJSON{X: 10 + float64(i)/2, Y: 10},
			Dropoff: pointJSON{X: 14, Y: 10},
		})
		id := decode[requestOut](t, resp).ID
		paths = append(paths, fmt.Sprintf("/v1/explain/%d", id))
	}
	postJSON(t, busyTS.URL+"/v1/tick", tickIn{Frames: 4})
	frames := busy.sim.Tracer().CertifiedFrames()
	if len(frames) != 4 {
		t.Fatalf("busy stack certified frames %v, want 4", frames)
	}
	for _, fr := range frames {
		paths = append(paths, fmt.Sprintf("/v1/frames/%d/stability", fr))
	}

	for _, p := range paths {
		if _, code := getJSON[json.RawMessage](t, busyTS.URL+p); code != http.StatusOK {
			t.Errorf("busy stack GET %s = %d, want 200", p, code)
		}
		if _, code := getJSON[json.RawMessage](t, idleTS.URL+p); code != http.StatusNotFound {
			t.Errorf("idle stack GET %s = %d, want 404", p, code)
		}
	}
}

// TestServingPathCertifiesEveryFrame drives Algorithm 1 (NSTD-P) and
// Algorithm 3 (STD-P) through the daemon's full handler chain —
// admission, /v1/tick and cancellations, with breakdowns and outages
// injected into its simulator under the server lock between ticks — and
// requires a certificate for every committed frame in the server's own
// recorder, served on /v1/frames/{n}/stability: stable with no blocking
// pair, on the market the frame was matched on, unless the frame is
// noted as degraded.
func TestServingPathCertifiesEveryFrame(t *testing.T) {
	for _, d := range []sim.Dispatcher{dispatch.NewNSTDP(), dispatch.NewSTDP(share.DefaultPackConfig())} {
		t.Run(d.Name(), func(t *testing.T) { servingPathCertifiesEveryFrame(t, d) })
	}
}

func servingPathCertifiesEveryFrame(t *testing.T, d sim.Dispatcher) {
	const frames = 40
	rng := rand.New(rand.NewSource(5))
	point := func() pointJSON { return pointJSON{X: 6 + 8*rng.Float64(), Y: 6 + 8*rng.Float64()} }
	taxis := make([]fleet.Taxi, 12)
	for i := range taxis {
		p := point()
		taxis[i] = fleet.Taxi{ID: i, Pos: geo.Point{X: p.X, Y: p.Y}, Seats: 3}
	}
	ts, srv := startServer(t, config{
		Taxis:      taxis,
		Params:     pref.DefaultParams(),
		Dispatcher: d,
		SpeedKmH:   60,
	})

	var ids []int
	var err error
	cancelled := 0
	for f := 0; f < frames; f++ {
		for k := 0; k < 4; k++ {
			resp := postJSON(t, ts.URL+"/v1/requests", requestIn{Pickup: point(), Dropoff: point()})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("frame %d: POST /v1/requests = %d", f, resp.StatusCode)
			}
			ids = append(ids, decode[requestOut](t, resp).ID)
		}
		switch f % 5 {
		case 1:
			taxi := rng.Intn(len(taxis))
			srv.locked(func() { err = srv.sim.InjectBreakdown(taxi, 3) })
		case 3:
			taxi := rng.Intn(len(taxis))
			srv.locked(func() { err = srv.sim.InjectOutage(taxi, srv.sim.Frame(), srv.sim.Frame()+2) })
		case 4:
			resp := doRequest(t, http.MethodDelete, fmt.Sprintf("%s/v1/requests/%d", ts.URL, ids[rng.Intn(len(ids))]), "")
			if resp.StatusCode == http.StatusOK {
				cancelled++
			}
		}
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if resp := postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1}); resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: POST /v1/tick = %d", f, resp.StatusCode)
		}
	}

	var st sim.Stats
	srv.locked(func() { st = srv.sim.Stats() })
	if st.Frames != frames || st.Breakdowns == 0 || cancelled == 0 || st.Events[sim.EventAssign] == 0 {
		t.Fatalf("run saw %d frames, %d breakdowns, %d cancels, %d assignments; the pin proves nothing",
			st.Frames, st.Breakdowns, cancelled, st.Events[sim.EventAssign])
	}
	matched := 0
	for f := 0; f < frames; f++ {
		c, code := getJSON[dtrace.Certificate](t, fmt.Sprintf("%s/v1/frames/%d/stability", ts.URL, f))
		if code != http.StatusOK {
			t.Errorf("frame %d has no certificate (status %d)", f, code)
			continue
		}
		if degraded(c) {
			continue
		}
		if !c.Stable || c.ViolationsTotal != 0 {
			t.Errorf("frame %d certified unstable: %d blocking pairs, %+v", f, c.ViolationsTotal, c.Violations)
		}
		matched += c.Matched
	}
	if matched == 0 {
		t.Error("no certificate matched a request; the pin proves nothing")
	}
}

// degraded reports whether a certificate carries a degraded-dispatch
// note: its frame was decided by a fallback, not the stable matching.
func degraded(c dtrace.Certificate) bool {
	for _, n := range c.Notes {
		if strings.HasPrefix(n, "degraded dispatch") {
			return true
		}
	}
	return false
}
