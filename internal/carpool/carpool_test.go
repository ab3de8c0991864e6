package carpool

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

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

func smallWorld(t *testing.T, seed int64, taxis, frames int) ([]fleet.Taxi, []fleet.Request) {
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

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if err := (Config{Theta: -1}).Validate(); err == nil {
		t.Error("accepted negative theta")
	}
}

func TestNames(t *testing.T) {
	if got := NewSARP(DefaultConfig()).Name(); got != "SARP" {
		t.Errorf("Name = %q", got)
	}
	if got := NewILP(share.DefaultPackConfig()).Name(); got != "ILP" {
		t.Errorf("Name = %q", got)
	}
}

func TestBaselinesServeTraffic(t *testing.T) {
	taxis, reqs := smallWorld(t, 10, 12, 40)
	dispatchers := []sim.Dispatcher{
		NewSARP(DefaultConfig()),
		NewILP(share.DefaultPackConfig()),
	}
	for _, d := range dispatchers {
		t.Run(d.Name(), func(t *testing.T) {
			rep := runSim(t, d, taxis, reqs)
			if rep.ServedCount() == 0 {
				t.Fatalf("%s served nothing out of %d", d.Name(), len(reqs))
			}
			if rep.ServedCount()*3 < len(reqs)*2 {
				t.Errorf("%s served only %d/%d", d.Name(), rep.ServedCount(), len(reqs))
			}
		})
	}
}

func TestInsertionBaselinesShareRides(t *testing.T) {
	// Overloaded fleet with aligned demand: the insertion baseline must
	// share at least one ride.
	var reqs []fleet.Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, fleet.Request{
			ID:      i,
			Pickup:  geo.Point{X: float64(i % 3), Y: 0.2 * float64(i%5)},
			Dropoff: geo.Point{X: 8 + float64(i%3), Y: 0.2 * float64(i%5)},
			Frame:   i / 4,
		})
	}
	taxis := []fleet.Taxi{
		{ID: 0, Pos: geo.Point{}},
		{ID: 1, Pos: geo.Point{X: 1}},
	}
	for _, d := range []sim.Dispatcher{NewSARP(DefaultConfig())} {
		t.Run(d.Name(), func(t *testing.T) {
			rep := runSim(t, d, taxis, reqs)
			if rep.SharedRideCount() == 0 {
				t.Errorf("%s never shared a ride under saturation", d.Name())
			}
		})
	}
}

func TestBestInsertionIdleTaxi(t *testing.T) {
	v := sim.TaxiView{ID: 0, Pos: geo.Point{}, Idle: true}
	r := fleet.Request{ID: 1, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 5}}
	plan, ok := bestInsertion(v, r, geo.EuclidMetric, 5, 100, 1000, new(insertionScratch))
	if !ok {
		t.Fatal("no insertion found for idle taxi")
	}
	if math.Abs(plan.added-5) > 1e-9 { // 2 km lead + 3 km trip
		t.Errorf("added = %v, want 5", plan.added)
	}
	if len(plan.route) != 2 {
		t.Errorf("route = %v", plan.route)
	}
}

func TestBestInsertionRespectsMaxAdded(t *testing.T) {
	v := sim.TaxiView{ID: 0, Pos: geo.Point{}, Idle: true}
	r := fleet.Request{ID: 1, Pickup: geo.Point{X: 50}, Dropoff: geo.Point{X: 60}}
	if _, ok := bestInsertion(v, r, geo.EuclidMetric, 5, 10, 1000, new(insertionScratch)); ok {
		t.Error("insertion accepted despite exceeding maxAdded")
	}
}

func TestBestInsertionRespectsTheta(t *testing.T) {
	// Busy taxi heading to x=10; the new rider goes the other way, so
	// any in-order insertion gives them a long on-board detour.
	v := sim.TaxiView{
		ID: 0, Pos: geo.Point{}, Load: 1,
		Route: []fleet.Stop{
			{RequestID: 9, Kind: fleet.StopDropoff, Pos: geo.Point{X: 10}, Seats: 1},
		},
	}
	r := fleet.Request{ID: 1, Pickup: geo.Point{X: 0, Y: 1}, Dropoff: geo.Point{X: 0, Y: 3}}
	if plan, ok := bestInsertion(v, r, geo.EuclidMetric, 0.5, 1000, 1000, new(insertionScratch)); ok {
		if onBoard := onBoardDistance(v.Pos, plan.route, 1, geo.EuclidMetric); onBoard-2 > 0.5+1e-9 {
			t.Errorf("accepted insertion with detour: onboard %v vs solo 2", onBoard)
		}
	}
}

func TestBestInsertionRespectsCapacity(t *testing.T) {
	v := sim.TaxiView{
		ID: 0, Pos: geo.Point{}, Seats: 2, Load: 2,
		Route: []fleet.Stop{
			{RequestID: 9, Kind: fleet.StopDropoff, Pos: geo.Point{X: 10}, Seats: 2},
		},
	}
	// Rider needs a seat before the current passenger leaves... any
	// insertion that picks up before x=10's drop-off busts capacity;
	// picking up after is allowed.
	r := fleet.Request{ID: 1, Pickup: geo.Point{X: 11}, Dropoff: geo.Point{X: 12}}
	plan, ok := bestInsertion(v, r, geo.EuclidMetric, 5, 100, 1000, new(insertionScratch))
	if !ok {
		t.Fatal("no insertion found")
	}
	// The pickup must come after the existing drop-off.
	if plan.route[0].RequestID != 9 {
		t.Errorf("capacity-violating insertion chosen: %v", plan.route)
	}
}

func TestSpliceRoute(t *testing.T) {
	route := []fleet.Stop{
		{RequestID: 9, Kind: fleet.StopDropoff, Pos: geo.Point{X: 10}},
	}
	r := fleet.Request{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}
	out := spliceRoute(route, r, 0, 0)
	if len(out) != 3 || out[0].Kind != fleet.StopPickup || out[1].Kind != fleet.StopDropoff || out[1].RequestID != 1 {
		t.Errorf("spliceRoute(0,0) = %v", out)
	}
	out = spliceRoute(route, r, 0, 1)
	if len(out) != 3 || out[0].RequestID != 1 || out[1].RequestID != 9 || out[2].RequestID != 1 {
		t.Errorf("spliceRoute(0,1) = %v", out)
	}
	out = spliceRoute(route, r, 1, 1)
	if len(out) != 3 || out[0].RequestID != 9 {
		t.Errorf("spliceRoute(1,1) = %v", out)
	}
}

func TestILPUsesIdleTaxisOnly(t *testing.T) {
	frame := &sim.Frame{
		Requests: []fleet.Request{{ID: 0, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}},
		Taxis: []sim.TaxiView{
			{ID: 0, Pos: geo.Point{}, Idle: false},
		},
		Metric: geo.EuclidMetric,
		Params: pref.DefaultParams(),
	}
	out, err := NewILP(share.DefaultPackConfig()).Dispatch(frame)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if out != nil {
		t.Errorf("ILP assigned to a busy taxi: %v", out)
	}
}

func TestDeterministicBaselines(t *testing.T) {
	taxis, reqs := smallWorld(t, 11, 8, 25)
	for _, mk := range []func() sim.Dispatcher{
		func() sim.Dispatcher { return NewSARP(DefaultConfig()) },
		func() sim.Dispatcher { return NewILP(share.DefaultPackConfig()) },
	} {
		a := runSim(t, mk(), taxis, reqs)
		b := runSim(t, mk(), taxis, reqs)
		for i := range a.Requests {
			if a.Requests[i] != b.Requests[i] {
				t.Fatalf("%s not deterministic at request %d", mk().Name(), i)
			}
		}
	}
}

// randomTaxiView builds a busy taxi with a consistent random route:
// onboard requests have a drop-off ahead; assigned ones have pickup then
// drop-off.
func randomTaxiView(rng *rand.Rand) sim.TaxiView {
	v := sim.TaxiView{
		ID:    0,
		Pos:   geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
		Seats: 2 + rng.Intn(4),
	}
	nOnboard := rng.Intn(3)
	nAssigned := rng.Intn(2)
	id := 100
	var tail []fleet.Stop
	for k := 0; k < nOnboard; k++ {
		seats := 1 + rng.Intn(2)
		v.Load += seats
		tail = append(tail, fleet.Stop{
			RequestID: id, Kind: fleet.StopDropoff, Seats: seats,
			Pos: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
		})
		id++
	}
	for k := 0; k < nAssigned; k++ {
		seats := 1 + rng.Intn(2)
		tail = append(tail,
			fleet.Stop{RequestID: id, Kind: fleet.StopPickup, Seats: seats,
				Pos: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}},
			fleet.Stop{RequestID: id, Kind: fleet.StopDropoff, Seats: seats,
				Pos: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}},
		)
		id++
	}
	// Shuffle assigned pickups before their drop-offs is already
	// guaranteed by construction order; interleave lightly by rotating.
	v.Route = tail
	v.Idle = len(tail) == 0
	return v
}

// TestBestInsertionMatchesBruteForce pins the incremental insertion
// arithmetic to the materialise-and-measure reference on random busy
// taxis. Every trial shares one scratch, as the calls of one
// SARP.Dispatch do, so a trial reads arrays a longer route left behind.
func TestBestInsertionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var sc insertionScratch
	for trial := 0; trial < 500; trial++ {
		v := randomTaxiView(rng)
		r := fleet.Request{
			ID:      1,
			Pickup:  geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Dropoff: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Seats:   1 + rng.Intn(2),
		}
		theta := rng.Float64() * 6
		maxAdded := rng.Float64() * 12

		maxWait := rng.Float64() * 30
		fast, fastOK := bestInsertion(v, r, geo.EuclidMetric, theta, maxAdded, maxWait, &sc)
		slow, slowOK := bestInsertionBrute(v, r, geo.EuclidMetric, theta, maxAdded, maxWait)
		if fastOK != slowOK {
			t.Fatalf("trial %d: feasibility mismatch fast=%v slow=%v (route %v)",
				trial, fastOK, slowOK, v.Route)
		}
		if !fastOK {
			continue
		}
		if math.Abs(fast.added-slow.added) > 1e-9 {
			t.Fatalf("trial %d: added %v vs brute %v", trial, fast.added, slow.added)
		}
		if len(fast.route) != len(slow.route) {
			t.Fatalf("trial %d: route lengths differ", trial)
		}
		// The chosen routes must cost the same even if tie-broken
		// differently.
		fastLen := fleet.RouteLength(v.Pos, fast.route, geo.EuclidMetric)
		slowLen := fleet.RouteLength(v.Pos, slow.route, geo.EuclidMetric)
		if math.Abs(fastLen-slowLen) > 1e-9 {
			t.Fatalf("trial %d: route length %v vs %v", trial, fastLen, slowLen)
		}
	}
}

// TestPickupWindowBoundsStraightLine pins why SARP also stands for RAII,
// and why SARP may skip a taxi before the splice search: a feasible
// insertion reaches the pickup within maxWait along the route, so the
// taxi is within maxWait in straight line, and a radius index at
// maxWait around the pickup would drop no taxi SARP can use.
func TestPickupWindowBoundsStraightLine(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	feasible := 0
	for trial := 0; trial < 500; trial++ {
		v := randomTaxiView(rng)
		r := fleet.Request{
			ID:      1,
			Pickup:  geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Dropoff: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Seats:   1,
		}
		maxWait := rng.Float64() * 15
		for _, m := range []geo.Metric{geo.EuclidMetric, geo.ManhattanMetric} {
			if _, ok := bestInsertion(v, r, m, 6, 30, maxWait, new(insertionScratch)); ok {
				feasible++
				if d := geo.Euclid(v.Pos, r.Pickup); d > maxWait {
					t.Fatalf("trial %d: feasible insertion for a taxi %v km from the pickup, window %v", trial, d, maxWait)
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible insertion: the check is vacuous")
	}
}

// sarpUnpruned is SARP.Dispatch without the straight-line prune: every
// online taxi not yet planned this frame goes through the splice search.
func sarpUnpruned(f *sim.Frame, cfg Config) []fleet.Assignment {
	views := append([]sim.TaxiView(nil), f.Taxis...)
	plans := make(map[int]insertionPlan)
	reqsOf := make(map[int][]int)
	for _, r := range f.Requests {
		bestTaxi, best := -1, insertionPlan{added: math.Inf(1)}
		for ti := range views {
			if _, taken := plans[ti]; taken || views[ti].Offline {
				continue
			}
			plan, ok := bestInsertion(views[ti], r, f.Metric, cfg.Theta, cfg.MaxAdded, cfg.MaxWait, new(insertionScratch))
			if ok && plan.added < best.added {
				bestTaxi, best = ti, plan
			}
		}
		if bestTaxi >= 0 {
			plans[bestTaxi] = best
			reqsOf[bestTaxi] = append(reqsOf[bestTaxi], r.ID)
		}
	}
	return buildAssignments(views, plans, reqsOf)
}

// TestSARPPruneKeepsAssignments checks that SARP's straight-line prune
// changes no assignment: on random busy fleets, under Euclid, Manhattan
// and a road grid, SARP dispatches exactly as the unpruned search.
func TestSARPPruneKeepsAssignments(t *testing.T) {
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 11, Cols: 11, Spacing: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]geo.Metric{
		"euclid":    geo.EuclidMetric,
		"manhattan": geo.ManhattanMetric,
		"road":      roadnet.NewMetric(g, 16),
	}
	rng := rand.New(rand.NewSource(36))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10} }
	for name, m := range metrics {
		pruned, assigned := 0, 0
		for trial := 0; trial < 60; trial++ {
			taxis := make([]sim.TaxiView, 5+rng.Intn(20))
			for i := range taxis {
				taxis[i] = randomTaxiView(rng)
				taxis[i].ID = i
				if rng.Intn(8) == 0 {
					taxis[i].Offline, taxis[i].Idle = true, false
				}
			}
			reqs := make([]fleet.Request, 1+rng.Intn(15))
			for j := range reqs {
				reqs[j] = fleet.Request{ID: 1000 + j, Pickup: pt(), Dropoff: pt(), Seats: 1 + rng.Intn(2)}
			}
			cfg := Config{Theta: 5, MaxAdded: 10, MaxWait: rng.Float64() * 8}
			f := &sim.Frame{Requests: reqs, Taxis: taxis, Metric: m}
			got, err := NewSARP(cfg).Dispatch(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := sarpUnpruned(f, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: pruned SARP assigned %+v, unpruned %+v", name, trial, got, want)
			}
			assigned += len(got)
			for _, v := range taxis {
				for _, r := range reqs {
					if geo.Euclid(v.Pos, r.Pickup) > cfg.MaxWait {
						pruned++
					}
				}
			}
		}
		if pruned == 0 || assigned == 0 {
			t.Fatalf("%s: %d pruned pairs, %d assignments: the check is vacuous", name, pruned, assigned)
		}
	}
}
