package stabledispatch

// Stability certificates from the simulator's commit path. Each traced
// frame is certified on the market its stable dispatcher reported
// matching on — NSTD's §IV-A market, STD's §V-A unit market — or, for a
// frame with no report (a baseline's, or a degraded one), on the §IV-A
// market built from a plane pruned at both dummy thresholds. These pins
// hold the per-frame certificates of quick-scale runs, the distance
// calls a traced run makes, and the rank evidence of a hand-crossed
// frame to the values of a certificate built from a fresh unpruned
// plane.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

// quickTracedSim builds a quick-scale Boston simulator dispatching with
// d and recording its decisions into rec.
func quickTracedSim(t *testing.T, d sim.Dispatcher, rec *dtrace.Recorder) *sim.Simulator {
	t.Helper()
	o := exp.QuickOptions()
	reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 200, o)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	s, err := sim.New(sim.Config{
		Params:         o.Params,
		Dispatcher:     d,
		PatienceFrames: o.PatienceMinutes,
		Workers:        o.Workers,
		Tracer:         rec,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return s
}

// quickPackConfig is Algorithm 3's packing configuration at quick scale.
func quickPackConfig() share.PackConfig {
	o := exp.QuickOptions()
	return share.PackConfig{Theta: o.Theta, MaxGroupSize: 3, PairRadius: 2 * o.Theta}
}

func TestTracedQuickScaleCertificates(t *testing.T) {
	cases := []struct {
		algo string
		make func() sim.Dispatcher
		// frames, unstable and matched summarise the certificates;
		// digest covers every frame's (Frame, Stable, Matched,
		// Requests, Taxis).
		frames, unstable, matched int
		digest                    string
	}{
		{"NSTD-P", func() sim.Dispatcher { return dispatch.NewNSTDP() }, 121, 0, 62, "4f9593890efec49c"},
		{"STD-P", func() sim.Dispatcher { return dispatch.NewSTDP(quickPackConfig()) }, 121, 0, 60, "e82c8df7e92c8356"},
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			rec := dtrace.New(0)
			if _, err := quickTracedSim(t, tc.make(), rec).Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			h := sha256.New()
			frames, unstable, matched := 0, 0, 0
			for _, fr := range rec.CertifiedFrames() {
				c, _ := rec.Certificate(fr)
				fmt.Fprintf(h, "%d %v %d %d %d\n", c.Frame, c.Stable, c.Matched, c.Requests, c.Taxis)
				frames++
				matched += c.Matched
				if !c.Stable {
					unstable++
				}
			}
			digest := hex.EncodeToString(h.Sum(nil))[:16]
			if frames != tc.frames || unstable != tc.unstable || matched != tc.matched || digest != tc.digest {
				t.Errorf("certificates: %d frames, %d unstable, %d matched, digest %s; want %d, %d, %d, %s",
					frames, unstable, matched, digest, tc.frames, tc.unstable, tc.matched, tc.digest)
			}
		})
	}
}

// TestInterleavedTracedSimulatorsMatchSoloRuns pins that a trace
// recorder is scoped to its simulator: a quick-scale NSTD-P run and a
// quick-scale STD-P run stepped alternately, each with its own
// recorder, record exactly the certificates and traces of their solo
// runs.
func TestInterleavedTracedSimulatorsMatchSoloRuns(t *testing.T) {
	type recorded struct {
		certs  []dtrace.Certificate
		traces []dtrace.Trace
	}
	record := func(rec *dtrace.Recorder) recorded {
		var out recorded
		for _, fr := range rec.CertifiedFrames() {
			c, _ := rec.Certificate(fr)
			out.certs = append(out.certs, c)
		}
		out.traces = rec.Snapshot()
		return out
	}
	names := []string{"NSTD-P", "STD-P"}
	makers := []func() sim.Dispatcher{
		func() sim.Dispatcher { return dispatch.NewNSTDP() },
		func() sim.Dispatcher { return dispatch.NewSTDP(quickPackConfig()) },
	}
	var solo []recorded
	var sims []*sim.Simulator
	var recs []*dtrace.Recorder
	for _, make := range makers {
		rec := dtrace.New(0)
		stepAll(t, quickTracedSim(t, make(), rec))
		solo = append(solo, record(rec))
		rec = dtrace.New(0)
		sims = append(sims, quickTracedSim(t, make(), rec))
		recs = append(recs, rec)
	}
	stepAll(t, sims...)
	for k, rec := range recs {
		got, want := record(rec), solo[k]
		if len(want.certs) == 0 || len(want.traces) == 0 {
			t.Fatalf("%s solo run recorded %d certificates and %d traces; the pin proves nothing",
				names[k], len(want.certs), len(want.traces))
		}
		if !reflect.DeepEqual(got.certs, want.certs) {
			t.Errorf("%s: interleaved run certified %d frames differently from its solo run (%d frames)",
				names[k], len(got.certs), len(want.certs))
		}
		if !reflect.DeepEqual(got.traces, want.traces) {
			t.Errorf("%s: interleaved run recorded %d traces, solo run %d, and they differ",
				names[k], len(got.traces), len(want.traces))
		}
	}
}

// countingMetric is the Euclidean metric counting its Distance calls;
// safe for the cost-plane worker pool.
type countingMetric struct{ calls atomic.Int64 }

func (c *countingMetric) Distance(a, b geo.Point) float64 {
	c.calls.Add(1)
	return geo.Euclid(a, b)
}

// TestTracedFrameReusesDispatchPlane pins that certifying a frame costs
// no distance computation on NSTD-P or STD-P: the certificate audits the
// market the dispatcher reported matching on, so a traced quick-scale
// run makes exactly the distance calls of an untraced one. The test
// fails if the certificate builds a plane of its own.
func TestTracedFrameReusesDispatchPlane(t *testing.T) {
	o := exp.QuickOptions()
	for _, tc := range []struct {
		name string
		make func() sim.Dispatcher
	}{
		{"NSTD-P", func() sim.Dispatcher { return dispatch.NewNSTDP() }},
		{"STD-P", func() sim.Dispatcher { return dispatch.NewSTDP(quickPackConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(rec *dtrace.Recorder) int64 {
				reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 200, o)
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				m := &countingMetric{}
				s, err := sim.New(sim.Config{
					Params:         o.Params,
					Metric:         m,
					Dispatcher:     tc.make(),
					PatienceFrames: o.PatienceMinutes,
					Workers:        o.Workers,
					Tracer:         rec,
				}, taxis, reqs)
				if err != nil {
					t.Fatalf("sim.New: %v", err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				return m.calls.Load()
			}
			untraced := run(nil)
			rec := dtrace.New(0)
			traced := run(rec)
			if len(rec.CertifiedFrames()) == 0 {
				t.Fatal("traced run certified no frame")
			}
			t.Logf("%d distance calls per run", untraced)
			if traced != untraced {
				t.Errorf("traced run made %d distance calls, untraced %d: certification built its own plane", traced, untraced)
			}
		})
	}
}

// crossedDispatcher hands request k to taxi 1−k: against both sides'
// preferences when each request's pickup sits next to the taxi of the
// same index.
type crossedDispatcher struct{}

func (crossedDispatcher) Name() string { return "crossed" }

func (crossedDispatcher) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	if len(f.Requests) != 2 {
		return nil, nil
	}
	return []fleet.Assignment{
		fleet.SingleRide(f.Taxis[1].ID, f.Requests[0]),
		fleet.SingleRide(f.Taxis[0].ID, f.Requests[1]),
	}, nil
}

// TestCertifyFrameHandCrossedBlockingPair commits a crossed 2×2 matching
// with a third taxi beyond the prune radius and checks the frame's
// certificate names the blocking pair with the ranks a certificate over
// the unpruned instance reports.
func TestCertifyFrameHandCrossedBlockingPair(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 10, Pickup: geo.Point{X: 0, Y: 0}, Dropoff: geo.Point{X: 20, Y: 0}, Seats: 1},
		{ID: 11, Pickup: geo.Point{X: 9, Y: 0}, Dropoff: geo.Point{X: 9, Y: 20}, Seats: 1},
	}
	taxis := []fleet.Taxi{
		{ID: 20, Pos: geo.Point{X: 0, Y: 1}, Seats: 3},
		{ID: 21, Pos: geo.Point{X: 9, Y: 1}, Seats: 3},
		{ID: 22, Pos: geo.Point{X: 50, Y: 50}, Seats: 3},
	}
	params := pref.DefaultParams()
	inst, err := pref.NewInstance(reqs, taxis, geo.EuclidMetric, params)
	if err != nil {
		t.Fatal(err)
	}
	want := dtrace.Certify(0, &inst.Market, []int{1, 0}, []int{10, 11}, []int{20, 21, 22})
	if want.ViolationsTotal == 0 {
		t.Fatal("reference certificate finds no violation")
	}

	rec := dtrace.New(0)
	s, err := sim.New(sim.Config{Params: params, Dispatcher: crossedDispatcher{}, Metric: geo.EuclidMetric, Tracer: rec}, taxis, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Certificate(0)
	if !ok {
		t.Fatal("frame 0 not certified")
	}
	if got.Stable || got.ViolationsTotal != want.ViolationsTotal || got.Matched != 2 || got.Taxis != 3 {
		t.Fatalf("certificate %+v, want %d violations over 2 matched of 3 taxis", got, want.ViolationsTotal)
	}
	for k, v := range got.Violations {
		if v != want.Violations[k] {
			t.Errorf("violation %d = %+v, want %+v", k, v, want.Violations[k])
		}
	}
	v := got.Violations[0]
	if v.RequestID != 10 || v.TaxiID != 20 || v.ReqRank != 0 || v.ReqPartnerRank != 1 || v.TaxiRank != 0 || v.TaxiPartnerRank != 1 {
		t.Errorf("first violation %+v, want (r10, t20) at ranks 0 over partners at 1", v)
	}
}
