package share

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/stable"
)

// pairPlane builds a taxi-less plane over reqs with the pair rows
// cfg.PairRadius prunes: everything group formation reads.
func pairPlane(reqs []fleet.Request, m geo.Metric, cfg PackConfig) *costplane.Plane {
	return costplane.Build(reqs, nil, m, costplane.Config{Workers: 1, Pairs: true, PairRadius: cfg.PairRadius})
}

// feasibleGroups runs group formation over every request of reqs on a
// Euclidean pair plane.
func feasibleGroups(t *testing.T, reqs []fleet.Request, cfg PackConfig) []Group {
	t.Helper()
	groups, err := FeasibleGroupsPlane(len(reqs), pairPlane(reqs, geo.EuclidMetric, cfg), cfg)
	if err != nil {
		t.Fatalf("FeasibleGroupsPlane: %v", err)
	}
	return groups
}

func TestPackConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     PackConfig
		wantErr bool
	}{
		{name: "defaults", cfg: DefaultPackConfig()},
		{name: "negative theta", cfg: PackConfig{Theta: -1, MaxGroupSize: 3}, wantErr: true},
		{name: "group too small", cfg: PackConfig{Theta: 1, MaxGroupSize: 1}, wantErr: true},
		{name: "group too big", cfg: PackConfig{Theta: 1, MaxGroupSize: 4}, wantErr: true},
		{name: "negative radius", cfg: PackConfig{Theta: 1, MaxGroupSize: 2, PairRadius: -3}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestFeasibleGroupsRespectTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reqs := randomRequests(rng, 10)
	cfg := PackConfig{Theta: 2, MaxGroupSize: 3}
	for _, g := range feasibleGroups(t, reqs, cfg) {
		if len(g.Members) < 2 || len(g.Members) > 3 {
			t.Fatalf("group size %d out of range", len(g.Members))
		}
		for gi, idx := range g.Members {
			solo := reqs[idx].TripDistance(geo.EuclidMetric)
			if d := g.Plan.Detour(gi, solo); d > cfg.Theta+1e-9 {
				t.Fatalf("group %v member %d detour %v exceeds theta", g.Members, idx, d)
			}
		}
	}
}

func TestFeasibleGroupsParallelRiders(t *testing.T) {
	// Two requests with identical itineraries must form a feasible pair
	// with zero detour.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 0}, Dropoff: geo.Point{X: 5}},
		{ID: 1, Pickup: geo.Point{X: 0, Y: 0.1}, Dropoff: geo.Point{X: 5, Y: 0.1}},
	}
	if groups := feasibleGroups(t, reqs, PackConfig{Theta: 1, MaxGroupSize: 2}); len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
}

func TestFeasibleGroupsOppositeRidersChain(t *testing.T) {
	// Opposite directions: the optimal shared route chains the two
	// trips back-to-back, so neither rider's ON-BOARD distance grows and
	// the pair meets θ. It is still not a share: the chain saves no
	// driving.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 0}, Dropoff: geo.Point{X: 10}},
		{ID: 1, Pickup: geo.Point{X: 10}, Dropoff: geo.Point{X: 0}},
	}
	rec := dtrace.New(0, 0)
	if groups := feasibleGroups(t, reqs, PackConfig{Theta: 0.5, MaxGroupSize: 2, Tracer: rec}); len(groups) != 0 {
		t.Fatalf("got %d groups, want 0 (chains save nothing)", len(groups))
	}
	tr, _ := rec.Trace(0)
	if len(tr.Events) != 1 || tr.Events[0].Outcome != "no_savings" {
		t.Errorf("rider 0's trace = %+v, want one no_savings rejection", tr.Events)
	}
}

func TestFeasibleGroupsDivergentDestinations(t *testing.T) {
	// Shared origin, divergent destinations: every stop order forces a
	// detour on someone, so a tight theta rejects the pair.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{}, Dropoff: geo.Point{X: 20}},
		{ID: 1, Pickup: geo.Point{}, Dropoff: geo.Point{Y: 3}},
	}
	if groups := feasibleGroups(t, reqs, PackConfig{Theta: 0.5, MaxGroupSize: 2}); len(groups) != 0 {
		t.Fatalf("got %d groups, want 0", len(groups))
	}
}

func TestPairRadiusPruningIsConsistent(t *testing.T) {
	// With a generous radius the pruned search must find the same
	// packing size as the exhaustive one.
	rng := rand.New(rand.NewSource(12))
	reqs := randomRequests(rng, 12)
	exhaustive := feasibleGroups(t, reqs, PackConfig{Theta: 3, MaxGroupSize: 3})
	pruned := feasibleGroups(t, reqs, PackConfig{Theta: 3, MaxGroupSize: 3, PairRadius: 50})
	if len(exhaustive) != len(pruned) {
		t.Errorf("pruned search found %d groups, exhaustive %d (radius covers the city)",
			len(pruned), len(exhaustive))
	}
}

func TestPackPartitionsRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		reqs := randomRequests(rng, 3+rng.Intn(12))
		res, err := Pack(reqs, geo.EuclidMetric, PackConfig{Theta: 4, MaxGroupSize: 3})
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		seen := make(map[int]int)
		for _, g := range res.Groups {
			for _, idx := range g.Members {
				seen[idx]++
			}
		}
		for _, idx := range res.Singles {
			seen[idx]++
		}
		if len(seen) != len(reqs) {
			t.Fatalf("trial %d: %d requests accounted for, want %d", trial, len(seen), len(reqs))
		}
		for idx, count := range seen {
			if count != 1 {
				t.Fatalf("trial %d: request %d appears %d times", trial, idx, count)
			}
		}
	}
}

func TestPackInvalidConfig(t *testing.T) {
	if _, err := Pack(nil, geo.EuclidMetric, PackConfig{Theta: -1, MaxGroupSize: 2}); err == nil {
		t.Error("Pack accepted invalid config")
	}
}

func TestSingleUnitReducesToNonSharing(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 8}},
	}
	taxis := []fleet.Taxi{{ID: 0, Pos: geo.Point{}}}
	pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1})
	params := pref.Unbounded() // α = β = 1
	mk, err := BuildMarketPlane([]Unit{SingleUnitPlane(0, pl)}, taxis, pl, params)
	if err != nil {
		t.Fatalf("BuildMarketPlane: %v", err)
	}

	// §V-A: with one member the sharing formulas reduce to the
	// non-sharing ones.
	entries := mk.ReqEntries(0)
	if len(entries) != 1 {
		t.Fatalf("unit's market row = %v, want the one taxi", entries)
	}
	if pc := entries[0].ReqCost; math.Abs(pc-2) > 1e-12 {
		t.Errorf("passenger cost = %v, want 2 = D(t, r^s)", pc)
	}
	if tc := entries[0].TaxiCost; math.Abs(tc-(2-6)) > 1e-12 {
		t.Errorf("taxi cost = %v, want -4 = D - alpha*trip", tc)
	}
}

func TestUnitsOrderedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	reqs := randomRequests(rng, 9)
	cfg := PackConfig{Theta: 5, MaxGroupSize: 3}
	pl := pairPlane(reqs, geo.EuclidMetric, cfg)
	res, err := PackPlane(len(reqs), pl, cfg)
	if err != nil {
		t.Fatalf("PackPlane: %v", err)
	}
	units := res.UnitsPlane(pl)
	total := 0
	prevFirst := -1
	for _, u := range units {
		total += len(u.Members)
		if u.Members[0] <= prevFirst {
			t.Errorf("units not ordered by first member: %d after %d", u.Members[0], prevFirst)
		}
		prevFirst = u.Members[0]
	}
	if total != len(reqs) {
		t.Errorf("units cover %d requests, want %d", total, len(reqs))
	}
}

func TestUnitAssignmentValid(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 10, Pickup: geo.Point{X: 0}, Dropoff: geo.Point{X: 5}},
		{ID: 11, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 6}},
	}
	groups := feasibleGroups(t, reqs, PackConfig{Theta: 5, MaxGroupSize: 2})
	if len(groups) != 1 {
		t.Fatalf("FeasibleGroupsPlane = %v, want one group", groups)
	}
	u := Unit{Members: groups[0].Members, Plan: groups[0].Plan}
	a := u.Assignment(3, reqs)
	if err := a.Validate(); err != nil {
		t.Fatalf("Assignment invalid: %v", err)
	}
	if a.TaxiID != 3 || len(a.Requests) != 2 {
		t.Errorf("Assignment = %+v", a)
	}
}

func TestBuildMarketStableMatchable(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	reqs := randomRequests(rng, 8)
	taxis := make([]fleet.Taxi, 4)
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: i, Pos: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}}
	}
	pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, Pairs: true})
	res, err := PackPlane(len(reqs), pl, PackConfig{Theta: 5, MaxGroupSize: 3})
	if err != nil {
		t.Fatalf("PackPlane: %v", err)
	}
	mk, err := BuildMarketPlane(res.UnitsPlane(pl), taxis, pl, pref.Unbounded())
	if err != nil {
		t.Fatalf("BuildMarketPlane: %v", err)
	}
	if err := mk.Validate(); err != nil {
		t.Fatalf("market invalid: %v", err)
	}
	m := stable.PassengerOptimal(mk)
	if err := stable.IsStable(mk, m); err != nil {
		t.Fatalf("second-stage matching unstable: %v", err)
	}
}

func TestBuildMarketCapacity(t *testing.T) {
	// A group needing 3 seats cannot go to a 2-seat taxi.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 0}, Dropoff: geo.Point{X: 5}, Seats: 2},
		{ID: 1, Pickup: geo.Point{X: 0.5}, Dropoff: geo.Point{X: 5.5}, Seats: 1},
	}
	taxis := []fleet.Taxi{
		{ID: 0, Pos: geo.Point{}, Seats: 2},
		{ID: 1, Pos: geo.Point{}, Seats: 4},
	}
	pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, Pairs: true})
	groups, err := FeasibleGroupsPlane(len(reqs), pl, PackConfig{Theta: 5, MaxGroupSize: 2})
	if err != nil || len(groups) != 1 {
		t.Fatalf("FeasibleGroupsPlane = %v, %v", groups, err)
	}
	units := []Unit{{Members: groups[0].Members, Plan: groups[0].Plan}}
	mk, err := BuildMarketPlane(units, taxis, pl, pref.Unbounded())
	if err != nil {
		t.Fatalf("BuildMarketPlane: %v", err)
	}
	if mk.MutualOK(0, 0) || mk.TaxiRank(0, 0) >= 0 {
		t.Error("3-seat group acceptable to 2-seat taxi")
	}
	if !mk.MutualOK(0, 1) || mk.TaxiRank(1, 0) != 0 {
		t.Error("3-seat group rejected by 4-seat taxi")
	}
}

func TestBuildMarketRejectsEmptyUnit(t *testing.T) {
	pl := costplane.Build(nil, nil, geo.EuclidMetric, costplane.Config{Workers: 1})
	if _, err := BuildMarketPlane([]Unit{{}}, nil, pl, pref.Unbounded()); err == nil {
		t.Error("BuildMarketPlane accepted an empty unit")
	}
}

func TestBuildMarketRejectsBadParams(t *testing.T) {
	pl := costplane.Build(nil, nil, geo.EuclidMetric, costplane.Config{Workers: 1})
	if _, err := BuildMarketPlane(nil, nil, pl, pref.Params{Alpha: -1}); err == nil {
		t.Error("BuildMarketPlane accepted invalid params")
	}
}

// TestPackMatchesDispatchPlane checks the metric convenience Pack, which
// packs on its own taxi-less plane, deep-equals PackPlane and
// UnitsPlane over a plane shaped like a dispatcher's: taxi rows pruned
// at a pickup radius, pair rows for the batch only, several workers.
// Both run under Euclid and a road-network metric.
func TestPackMatchesDispatchPlane(t *testing.T) {
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 21, Cols: 21, Spacing: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]geo.Metric{"euclid": geo.EuclidMetric, "roadnet": roadnet.NewMetric(g, 64)}
	cfg := DefaultPackConfig()
	cfg.Theta = 2
	rng := rand.New(rand.NewSource(22))
	for name, m := range metrics {
		groups := 0
		for trial := 0; trial < 20; trial++ {
			reqs := randomRequests(rng, 5+rng.Intn(60))
			taxis := make([]fleet.Taxi, 1+rng.Intn(8))
			for i := range taxis {
				taxis[i] = fleet.Taxi{ID: i, Pos: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}}
			}
			got, err := Pack(reqs, m, cfg)
			if err != nil {
				t.Fatalf("%s trial %d: Pack: %v", name, trial, err)
			}
			pl := costplane.Build(reqs, taxis, m, costplane.Config{
				Workers: 2, PruneRadius: 3, Pairs: true, PairRows: len(reqs), PairRadius: cfg.PairRadius,
			})
			want, err := PackPlane(len(reqs), pl, cfg)
			if err != nil {
				t.Fatalf("%s trial %d: PackPlane: %v", name, trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: Pack %+v, PackPlane %+v", name, trial, got, want)
			}
			if !reflect.DeepEqual(got.UnitsPlane(pairPlane(reqs, m, cfg)), want.UnitsPlane(pl)) {
				t.Fatalf("%s trial %d: units differ", name, trial)
			}
			groups += len(got.Groups)
		}
		if groups == 0 {
			t.Fatalf("%s: fixtures pack no group", name)
		}
	}
}

// TestFeasibleGroupsOrderIsDeterministic checks repeated enumeration of
// one batch returns the same groups in the same order. Set packing's
// greedy pass and (1,2) moves break ties by set index, so the order must
// be a function of the input alone.
func TestFeasibleGroupsOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := PackConfig{Theta: 4, MaxGroupSize: 3, PairRadius: 8}
	triples := 0
	for trial := 0; trial < 20; trial++ {
		reqs := randomRequests(rng, 40)
		first := feasibleGroups(t, reqs, cfg)
		for _, g := range first {
			if len(g.Members) == 3 {
				triples++
			}
		}
		for call := 0; call < 3; call++ {
			again := feasibleGroups(t, reqs, cfg)
			if len(again) != len(first) {
				t.Fatalf("trial %d call %d: %d groups, first call %d", trial, call, len(again), len(first))
			}
			for k := range first {
				if !slices.Equal(again[k].Members, first[k].Members) {
					t.Fatalf("trial %d call %d: group %d is %v, first call %v", trial, call, k, again[k].Members, first[k].Members)
				}
			}
		}
	}
	if triples == 0 {
		t.Fatal("fixtures form no triple; the order of triples is untested")
	}
}
