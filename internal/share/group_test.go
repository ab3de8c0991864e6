package share

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/stable"
)

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
	groups, err := FeasibleGroups(reqs, geo.EuclidMetric, cfg)
	if err != nil {
		t.Fatalf("FeasibleGroups: %v", err)
	}
	for _, g := range groups {
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
	groups, err := FeasibleGroups(reqs, geo.EuclidMetric, PackConfig{Theta: 1, MaxGroupSize: 2})
	if err != nil {
		t.Fatalf("FeasibleGroups: %v", err)
	}
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
}

func TestFeasibleGroupsOppositeRidersChain(t *testing.T) {
	// Opposite directions: the optimal shared route chains the two
	// trips back-to-back, so neither rider's ON-BOARD distance grows.
	// Under the paper's pure θ constraint (AllowChaining) the pair is
	// feasible; under the default savings requirement it is not, since
	// the chain saves no driving.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 0}, Dropoff: geo.Point{X: 10}},
		{ID: 1, Pickup: geo.Point{X: 10}, Dropoff: geo.Point{X: 0}},
	}
	groups, err := FeasibleGroups(reqs, geo.EuclidMetric, PackConfig{Theta: 0.5, MaxGroupSize: 2})
	if err != nil {
		t.Fatalf("FeasibleGroups: %v", err)
	}
	if len(groups) != 0 {
		t.Fatalf("got %d groups, want 0 (chains save nothing)", len(groups))
	}

	chained, err := FeasibleGroups(reqs, geo.EuclidMetric,
		PackConfig{Theta: 0.5, MaxGroupSize: 2, AllowChaining: true})
	if err != nil {
		t.Fatalf("FeasibleGroups: %v", err)
	}
	if len(chained) != 1 {
		t.Fatalf("got %d groups with AllowChaining, want 1 (zero detour)", len(chained))
	}
	// The chained rider waits the whole first trip before pickup.
	g := chained[0]
	if g.Plan.PickupOffset[0]+g.Plan.PickupOffset[1] < 10-1e-9 {
		t.Errorf("pickup offsets = %v; one rider must wait out the first trip", g.Plan.PickupOffset)
	}
}

func TestFeasibleGroupsDivergentDestinations(t *testing.T) {
	// Shared origin, divergent destinations: every stop order forces a
	// detour on someone, so a tight theta rejects the pair.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{}, Dropoff: geo.Point{X: 20}},
		{ID: 1, Pickup: geo.Point{}, Dropoff: geo.Point{Y: 3}},
	}
	groups, err := FeasibleGroups(reqs, geo.EuclidMetric, PackConfig{Theta: 0.5, MaxGroupSize: 2})
	if err != nil {
		t.Fatalf("FeasibleGroups: %v", err)
	}
	if len(groups) != 0 {
		t.Fatalf("got %d groups, want 0", len(groups))
	}
}

func TestPairRadiusPruningIsConsistent(t *testing.T) {
	// With a generous radius the pruned search must find the same
	// packing size as the exhaustive one.
	rng := rand.New(rand.NewSource(12))
	reqs := randomRequests(rng, 12)
	exhaustive, err := FeasibleGroups(reqs, geo.EuclidMetric, PackConfig{Theta: 3, MaxGroupSize: 3})
	if err != nil {
		t.Fatalf("FeasibleGroups: %v", err)
	}
	pruned, err := FeasibleGroups(reqs, geo.EuclidMetric, PackConfig{Theta: 3, MaxGroupSize: 3, PairRadius: 50})
	if err != nil {
		t.Fatalf("FeasibleGroups pruned: %v", err)
	}
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
	u := SingleUnit(0, reqs, geo.EuclidMetric)
	taxiPos := geo.Point{}
	lead := geo.Euclid(taxiPos, reqs[0].Pickup)

	// §V-A: with one member the sharing formulas reduce to the
	// non-sharing ones.
	pc := u.PassengerCost(lead, reqs, geo.EuclidMetric, 1)
	if math.Abs(pc-2) > 1e-12 {
		t.Errorf("PassengerCost = %v, want 2 = D(t, r^s)", pc)
	}
	tc := u.TaxiCost(lead, reqs, geo.EuclidMetric, 1)
	if math.Abs(tc-(2-6)) > 1e-12 {
		t.Errorf("TaxiCost = %v, want -4 = D - alpha*trip", tc)
	}
	diss := u.MemberDissatisfactions(taxiPos, reqs, geo.EuclidMetric, 1)
	if len(diss) != 1 || math.Abs(diss[0]-2) > 1e-12 {
		t.Errorf("MemberDissatisfactions = %v, want [2]", diss)
	}
}

func TestUnitsOrderedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	reqs := randomRequests(rng, 9)
	res, err := Pack(reqs, geo.EuclidMetric, PackConfig{Theta: 5, MaxGroupSize: 3})
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	units := res.Units(reqs, geo.EuclidMetric)
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
	groups, err := FeasibleGroups(reqs, geo.EuclidMetric, PackConfig{Theta: 5, MaxGroupSize: 2})
	if err != nil || len(groups) != 1 {
		t.Fatalf("FeasibleGroups = %v, %v", groups, err)
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
	res, err := Pack(reqs, geo.EuclidMetric, PackConfig{Theta: 5, MaxGroupSize: 3})
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	units := res.Units(reqs, geo.EuclidMetric)
	mk, err := BuildMarket(units, reqs, taxis, geo.EuclidMetric, pref.Unbounded())
	if err != nil {
		t.Fatalf("BuildMarket: %v", err)
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
	groups, err := FeasibleGroups(reqs, geo.EuclidMetric, PackConfig{Theta: 5, MaxGroupSize: 2})
	if err != nil || len(groups) != 1 {
		t.Fatalf("FeasibleGroups = %v, %v", groups, err)
	}
	units := []Unit{{Members: groups[0].Members, Plan: groups[0].Plan}}
	mk, err := BuildMarket(units, reqs, taxis, geo.EuclidMetric, pref.Unbounded())
	if err != nil {
		t.Fatalf("BuildMarket: %v", err)
	}
	if mk.MutualOK(0, 0) || mk.TaxiRank(0, 0) >= 0 {
		t.Error("3-seat group acceptable to 2-seat taxi")
	}
	if !mk.MutualOK(0, 1) || mk.TaxiRank(1, 0) != 0 {
		t.Error("3-seat group rejected by 4-seat taxi")
	}
}

func TestBuildMarketRejectsEmptyUnit(t *testing.T) {
	if _, err := BuildMarket([]Unit{{}}, nil, nil, geo.EuclidMetric, pref.Unbounded()); err == nil {
		t.Error("BuildMarket accepted an empty unit")
	}
}

func TestBuildMarketRejectsBadParams(t *testing.T) {
	if _, err := BuildMarket(nil, nil, nil, geo.EuclidMetric, pref.Params{Alpha: -1}); err == nil {
		t.Error("BuildMarket accepted invalid params")
	}
}

func TestPackExactNeverWorseThanApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		reqs := randomRequests(rng, 4+rng.Intn(10))
		approx, err := Pack(reqs, geo.EuclidMetric, PackConfig{Theta: 4, MaxGroupSize: 3})
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		exact, err := Pack(reqs, geo.EuclidMetric, PackConfig{
			Theta: 4, MaxGroupSize: 3, ExactPacking: true,
		})
		if err != nil {
			t.Fatalf("Pack exact: %v", err)
		}
		if len(exact.Groups) < len(approx.Groups) {
			t.Fatalf("trial %d: exact packed %d groups, approx %d",
				trial, len(exact.Groups), len(approx.Groups))
		}
		// Exact result must still be a partition.
		seen := make(map[int]int)
		for _, g := range exact.Groups {
			for _, idx := range g.Members {
				seen[idx]++
			}
		}
		for _, idx := range exact.Singles {
			seen[idx]++
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: request %d appears %d times", trial, idx, n)
			}
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
		first, err := FeasibleGroups(reqs, geo.EuclidMetric, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range first {
			if len(g.Members) == 3 {
				triples++
			}
		}
		for call := 0; call < 3; call++ {
			again, err := FeasibleGroups(reqs, geo.EuclidMetric, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
