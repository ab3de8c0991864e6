package share

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
	rec := dtrace.New(0)
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

func TestFeasibleGroupsDivergentPairFailsDetourBound(t *testing.T) {
	// Pickups 3 km apart, dropoffs in different directions: whoever
	// boards first rides at least 3.44 km extra, so the detour bound
	// rejects the pair without a route search.
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{}, Dropoff: geo.Point{X: 10}},
		{ID: 1, Pickup: geo.Point{Y: 3}, Dropoff: geo.Point{Y: 10}},
	}
	cfg := PackConfig{Theta: 1, MaxGroupSize: 2}
	calls := 0
	m := geo.MetricFunc(func(a, b geo.Point) float64 { calls++; return geo.Euclid(a, b) })
	pl := pairPlane(reqs, m, cfg)
	calls = 0
	if groups, err := FeasibleGroupsPlane(len(reqs), pl, cfg); err != nil || len(groups) != 0 {
		t.Fatalf("FeasibleGroupsPlane = %v, %v; want no group", groups, err)
	}
	if calls != 2 {
		t.Errorf("%d metric calls, want 2 (one detour bound per rider, no route search)", calls)
	}
	cfg.Tracer = dtrace.New(0)
	if _, err := FeasibleGroupsPlane(len(reqs), pl, cfg); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		tr, _ := cfg.Tracer.Trace(r.ID)
		if len(tr.Events) != 1 || tr.Events[0].Outcome != "detour_exceeded" ||
			!strings.Contains(tr.Events[0].Detail(), "rider r0 detour ≥ 3.44 km, rider r1 detour ≥ 6.00 km") {
			t.Errorf("rider %d's trace = %+v, want one detour_exceeded rejection naming both bounds", r.ID, tr.Events)
		}
	}
}

// refFeasibleGroups is the route-search reference of
// FeasibleGroupsPlane: every pair within PairRadius runs BestRoute and
// the θ and savings checks, and triples grow from the feasible-pair
// graph the same way. It also returns the number of group_rejected
// events a traced run records: one per member of each rejected
// candidate.
func refFeasibleGroups(n int, pl *costplane.Plane, cfg PackConfig) ([]Group, int) {
	reqs, m := pl.Requests[:n], pl.Metric()
	var groups []Group
	rejected := 0
	try := func(members ...int) bool {
		sub := make([]fleet.Request, len(members))
		for g, idx := range members {
			sub[g] = reqs[idx]
		}
		plan, err := BestRoute(sub, m)
		ok := err == nil
		soloSum := 0.0
		for g, idx := range members {
			if ok && plan.Detour(g, pl.Trip(idx)) > cfg.Theta {
				ok = false
			}
			soloSum += pl.Trip(idx)
		}
		if ok && plan.Length < soloSum-1e-9 {
			groups = append(groups, Group{Members: members, Plan: plan})
			return true
		}
		rejected += len(members)
		return false
	}
	adj := make([][]int, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if (cfg.PairRadius == 0 || pl.PairDist(a, b) <= cfg.PairRadius) && try(a, b) {
				adj[a] = append(adj[a], b)
			}
		}
	}
	for a := 0; a < n && cfg.MaxGroupSize >= 3; a++ {
		for bi, b := range adj[a] {
			for _, c := range adj[a][bi+1:] {
				if slices.Contains(adj[b], c) {
					try(a, b, c)
				}
			}
		}
	}
	return groups, rejected
}

// groupMembers lists each group's members, for failure messages.
func groupMembers(groups []Group) [][]int {
	out := make([][]int, len(groups))
	for k, g := range groups {
		out[k] = g.Members
	}
	return out
}

// directedIsland is the island of directedMetric: no leg joins it to
// any other point.
var directedIsland = geo.Point{X: 14, Y: 14}

// directedMetric is Manhattan plus every eastward step counted twice,
// so a leg and its reverse differ, and +Inf between the island and any
// other point. Both parts obey the triangle inequality, and so does
// their sum. It is deliberately not symmetric, which geo.Metric asks
// for, so that a bound reading a pair's distance in the wrong direction
// shows.
func directedMetric(a, b geo.Point) float64 {
	if (a == directedIsland) != (b == directedIsland) {
		return math.Inf(1)
	}
	return geo.Manhattan(a, b) + max(0, b.X-a.X)
}

// TestFeasibleGroupsPlaneMatchesRouteSearch holds the sound pair bounds
// to the route search they skip: FeasibleGroupsPlane, traced or not,
// must deep-equal refFeasibleGroups and record as many group_rejected
// events. Frames run under Euclid with real coordinates, Manhattan on
// an integer grid, a directed metric on the same grid whose island
// makes some legs +Inf, and collinear same-direction rides under Euclid with
// θ = 0, where the bounds tie the route search's own sums up to float
// rounding. The integer frames put pairs exactly on both bounds: a
// pickup gap equal to the first rider's solo trip, and a detour bound
// equal to θ.
func TestFeasibleGroupsPlaneMatchesRouteSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	grid := func() geo.Point { return geo.Point{X: float64(rng.Intn(11)), Y: float64(rng.Intn(11))} }
	real := func() geo.Point { return geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10} }
	dir := geo.Point{X: 0.6, Y: 0.8}
	families := []struct {
		name   string
		m      geo.Metric
		req    func() fleet.Request
		thetas []float64
	}{
		{"euclid", geo.EuclidMetric, func() fleet.Request { return fleet.Request{Pickup: real(), Dropoff: real()} }, []float64{0, 0.5, 2, 4}},
		{"manhattan", geo.ManhattanMetric, func() fleet.Request { return fleet.Request{Pickup: grid(), Dropoff: grid()} }, []float64{0, 1, 2, 4}},
		{"directed", geo.MetricFunc(directedMetric), func() fleet.Request {
			r := fleet.Request{Pickup: grid(), Dropoff: grid()}
			switch rng.Intn(10) {
			case 0:
				r.Pickup = directedIsland
			case 1:
				r.Dropoff = directedIsland
			case 2:
				r.Pickup = geo.Point{X: r.Pickup.X + rng.Float64() - 0.5, Y: r.Pickup.Y}
			}
			return r
		}, []float64{0, 2, 4, 8}},
		{"collinear", geo.EuclidMetric, func() fleet.Request {
			s, e := rng.Float64()*10, rng.Float64()*10
			s, e = min(s, e), max(s, e)
			return fleet.Request{Pickup: geo.Point{X: s * dir.X, Y: s * dir.Y}, Dropoff: geo.Point{X: e * dir.X, Y: e * dir.Y}}
		}, []float64{0}},
	}
	for _, f := range families {
		var feasible, triples, rejected, gapTies, detourTies, infLegs int
		for trial := 0; trial < 40; trial++ {
			reqs := make([]fleet.Request, 2+rng.Intn(24))
			for j := range reqs {
				reqs[j] = f.req()
				reqs[j].ID = 100 + j
			}
			cfg := PackConfig{Theta: f.thetas[rng.Intn(len(f.thetas))], MaxGroupSize: 2 + rng.Intn(2), PairRadius: []float64{0, 3, 6}[rng.Intn(3)]}
			pl := pairPlane(reqs, f.m, cfg)
			if cfg.PairRadius == 0 && rng.Intn(2) == 0 {
				pl = costplane.Build(reqs, nil, f.m, costplane.Config{Workers: 1}) // no pair rows
			}
			for x := range reqs {
				for y := range reqs {
					if x == y {
						continue
					}
					px, py, dx := reqs[x].Pickup, reqs[y].Pickup, reqs[x].Dropoff
					d, trip := f.m.Distance(px, py), pl.Trip(x)
					if d == trip {
						gapTies++
					}
					if d < trip && d+f.m.Distance(py, dx)-trip == cfg.Theta {
						detourTies++
					}
					if math.IsInf(d+trip, 1) {
						infLegs++
					}
				}
			}
			want, wantRejected := refFeasibleGroups(len(reqs), pl, cfg)
			got, err := FeasibleGroupsPlane(len(reqs), pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d (%+v): groups %v, route search %v", f.name, trial, cfg, groupMembers(got), groupMembers(want))
			}
			cfg.Tracer = dtrace.New(1 << 20)
			traced, err := FeasibleGroupsPlane(len(reqs), pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(traced, want) {
				t.Fatalf("%s trial %d: traced groups %v, route search %v", f.name, trial, groupMembers(traced), groupMembers(want))
			}
			events := 0
			for _, tr := range cfg.Tracer.Snapshot() {
				for _, e := range tr.Events {
					if e.Kind == dtrace.KindGroupRejected {
						events++
					}
				}
			}
			if events != wantRejected {
				t.Fatalf("%s trial %d: %d group_rejected events, route search %d", f.name, trial, events, wantRejected)
			}
			for _, gr := range want {
				if len(gr.Members) == 3 {
					triples++
				}
			}
			feasible += len(want)
			rejected += wantRejected
		}
		switch {
		case feasible == 0 || rejected == 0:
			t.Errorf("%s: fixtures have %d feasible groups, %d rejected member slots", f.name, feasible, rejected)
		case f.name != "collinear" && triples == 0:
			t.Errorf("%s: fixtures form no triple", f.name)
		case f.name != "euclid" && f.name != "collinear" && (gapTies == 0 || detourTies == 0):
			t.Errorf("%s: fixtures put %d pairs on the savings bound, %d on the detour bound", f.name, gapTies, detourTies)
		case f.name == "directed" && infLegs == 0:
			t.Errorf("%s: fixtures reach no +Inf leg", f.name)
		}
	}
}
