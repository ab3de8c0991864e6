package dispatch

import (
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
	"stabledispatch/internal/trace"
)

func smallWorld(t *testing.T, seed int64, taxis int, frames int) ([]fleet.Taxi, []fleet.Request) {
	t.Helper()
	cfg := trace.BostonConfig(frames, seed)
	cfg.RequestsPerDay = 3000
	reqs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	fl, err := trace.Taxis(cfg.City, taxis, seed+1)
	if err != nil {
		t.Fatalf("Taxis: %v", err)
	}
	return fl, reqs
}

func runSim(t *testing.T, d sim.Dispatcher, taxis []fleet.Taxi, reqs []fleet.Request) *sim.Report {
	t.Helper()
	s, err := sim.New(sim.Config{
		Dispatcher:  d,
		Params:      pref.DefaultParams(),
		DrainFrames: 600,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run(%s): %v", d.Name(), err)
	}
	return rep
}

func TestNames(t *testing.T) {
	tests := []struct {
		d    sim.Dispatcher
		want string
	}{
		{d: NewNSTDP(), want: "NSTD-P"},
		{d: NewNSTDT(), want: "NSTD-T"},
		{d: NewGreedy(), want: "Greedy"},
		{d: NewMinCost(), want: "MinCost"},
		{d: NewBottleneck(), want: "Bottleneck"},
		{d: NewSTDP(share.DefaultPackConfig()), want: "STD-P"},
		{d: NewSTDT(share.DefaultPackConfig()), want: "STD-T"},
	}
	for _, tt := range tests {
		if got := tt.d.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestAllNonSharingDispatchersServeTraffic(t *testing.T) {
	taxis, reqs := smallWorld(t, 1, 30, 60)
	dispatchers := []sim.Dispatcher{
		NewNSTDP(), NewNSTDT(), NewGreedy(), NewMinCost(), NewBottleneck(),
	}
	for _, d := range dispatchers {
		t.Run(d.Name(), func(t *testing.T) {
			rep := runSim(t, d, taxis, reqs)
			if rep.ServedCount() == 0 {
				t.Fatalf("%s served nothing out of %d requests", d.Name(), len(reqs))
			}
			// A majority of requests must be served in a healthy
			// small world.
			if rep.ServedCount()*2 < len(reqs) {
				t.Errorf("%s served only %d/%d", d.Name(), rep.ServedCount(), len(reqs))
			}
			for _, e := range rep.Episodes {
				if e.Requests != 1 {
					t.Errorf("%s produced a shared episode (%d requests)", d.Name(), e.Requests)
				}
			}
		})
	}
}

func TestSharingDispatchersServeTraffic(t *testing.T) {
	taxis, reqs := smallWorld(t, 2, 12, 40)
	for _, d := range []sim.Dispatcher{NewSTDP(share.DefaultPackConfig()), NewSTDT(share.DefaultPackConfig())} {
		t.Run(d.Name(), func(t *testing.T) {
			rep := runSim(t, d, taxis, reqs)
			if rep.ServedCount() == 0 {
				t.Fatalf("%s served nothing", d.Name())
			}
		})
	}
}

// frameMatchingIsStable dispatches one frame by hand and verifies the
// resulting assignment is a stable matching of the frame's market.
func TestNSTDFrameMatchingIsStable(t *testing.T) {
	taxis, reqs := smallWorld(t, 3, 15, 1)
	frame := &sim.Frame{
		Number:   0,
		Requests: reqs,
		Metric:   geo.EuclidMetric,
		Params:   pref.DefaultParams(),
	}
	for _, taxi := range taxis {
		frame.Taxis = append(frame.Taxis, sim.TaxiView{ID: taxi.ID, Pos: taxi.Pos, Seats: taxi.Seats, Idle: true})
	}
	for _, d := range []*NSTD{NewNSTDP(), NewNSTDT()} {
		assignments, err := d.Dispatch(frame)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		inst, err := pref.NewInstance(reqs, taxis, frame.Metric, frame.Params)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		m := stable.NewMatching(len(reqs), len(taxis))
		reqIdx := make(map[int]int, len(reqs))
		for j, r := range reqs {
			reqIdx[r.ID] = j
		}
		taxiIdx := make(map[int]int, len(taxis))
		for i, taxi := range taxis {
			taxiIdx[taxi.ID] = i
		}
		for _, a := range assignments {
			j := reqIdx[a.Requests[0]]
			i := taxiIdx[a.TaxiID]
			m.ReqPartner[j] = i
			m.TaxiPartner[i] = j
		}
		if err := stable.IsStable(&inst.Market, m); err != nil {
			t.Errorf("%s produced an unstable frame matching: %v", d.Name(), err)
		}
	}
}

// The defining trade-off of the paper: stable dispatchers must beat the
// passenger-only baselines on taxi dissatisfaction.
func TestStableDispatchImprovesTaxiDissatisfaction(t *testing.T) {
	taxis, reqs := smallWorld(t, 4, 20, 120)

	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			t.Fatal("no episodes")
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	nstd := mean(runSim(t, NewNSTDP(), taxis, reqs).TaxiDissatisfactions())
	greedy := mean(runSim(t, NewGreedy(), taxis, reqs).TaxiDissatisfactions())
	if nstd >= greedy {
		t.Errorf("NSTD-P taxi dissatisfaction %v not better than Greedy %v", nstd, greedy)
	}
}

func TestDispatchersIgnoreEmptyFrames(t *testing.T) {
	frame := &sim.Frame{Metric: geo.EuclidMetric, Params: pref.DefaultParams()}
	dispatchers := []sim.Dispatcher{
		NewNSTDP(), NewNSTDT(), NewGreedy(), NewMinCost(), NewBottleneck(),
		NewSTDP(share.DefaultPackConfig()), NewSTDT(share.DefaultPackConfig()),
	}
	for _, d := range dispatchers {
		out, err := d.Dispatch(frame)
		if err != nil || out != nil {
			t.Errorf("%s on empty frame = %v, %v", d.Name(), out, err)
		}
	}
}

func TestSTDEmitsSharedAssignments(t *testing.T) {
	// Two near-identical itineraries and one taxi: sharing must pack
	// them into a single assignment.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 6}, Frame: 0},
		{ID: 1, Pickup: geo.Point{X: 1.2}, Dropoff: geo.Point{X: 6.2}, Frame: 0},
	}
	frame := &sim.Frame{
		Requests: reqs,
		Taxis:    []sim.TaxiView{{ID: 0, Pos: geo.Point{}, Idle: true}},
		Metric:   geo.EuclidMetric,
		Params:   pref.Unbounded(),
	}
	d := NewSTDP(share.PackConfig{Theta: 5, MaxGroupSize: 3})
	out, err := d.Dispatch(frame)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d assignments, want 1 shared", len(out))
	}
	if len(out[0].Requests) != 2 {
		t.Errorf("assignment carries %d requests, want 2", len(out[0].Requests))
	}
	if err := out[0].Validate(); err != nil {
		t.Errorf("assignment invalid: %v", err)
	}
}

func TestDeterministicDispatch(t *testing.T) {
	taxis, reqs := smallWorld(t, 5, 10, 30)
	for _, mk := range []func() sim.Dispatcher{
		func() sim.Dispatcher { return NewNSTDP() },
		func() sim.Dispatcher { return NewSTDP(share.DefaultPackConfig()) },
	} {
		a := runSim(t, mk(), taxis, reqs)
		b := runSim(t, mk(), taxis, reqs)
		if a.ServedCount() != b.ServedCount() || len(a.Episodes) != len(b.Episodes) {
			t.Fatalf("%s not deterministic", mk().Name())
		}
		for i := range a.Requests {
			if a.Requests[i] != b.Requests[i] {
				t.Fatalf("%s request outcome %d differs", mk().Name(), i)
			}
		}
	}
}
