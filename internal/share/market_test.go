package share

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/stable"
	"stabledispatch/internal/trace"
)

// denseReference is a market in the dense layout: both sides' cost of
// every cell and both sides' acceptability bit. Its lists are the
// mutually acceptable cells sorted by cost, ties to the lower index.
type denseReference struct {
	reqCost, taxiCost [][]float64 // [j][i] and [i][j]
	reqOK, taxiOK     [][]bool    // [j][i] and [i][j]
}

func newDenseReference(nReq, nTaxi int) denseReference {
	d := denseReference{
		reqCost: make([][]float64, nReq), reqOK: make([][]bool, nReq),
		taxiCost: make([][]float64, nTaxi), taxiOK: make([][]bool, nTaxi),
	}
	for j := range d.reqCost {
		d.reqCost[j], d.reqOK[j] = make([]float64, nTaxi), make([]bool, nTaxi)
	}
	for i := range d.taxiCost {
		d.taxiCost[i], d.taxiOK[i] = make([]float64, nReq), make([]bool, nReq)
	}
	return d
}

// set fills cell (j, i) with the two sides' costs under the dummy
// thresholds: seatsOK && reqCost <= MaxPickup on the request side,
// seatsOK && taxiCost <= MaxNet on the taxi side.
func (d denseReference) set(j, i int, reqCost, taxiCost float64, seatsOK bool, p pref.Params) {
	d.reqCost[j][i], d.taxiCost[i][j] = reqCost, taxiCost
	d.reqOK[j][i] = seatsOK && reqCost <= p.MaxPickup
	d.taxiOK[i][j] = seatsOK && taxiCost <= p.MaxNet
}

func (d denseReference) reqList(j int) []pref.Entry {
	var list []pref.Entry
	for i := range d.taxiCost {
		if d.reqOK[j][i] && d.taxiOK[i][j] {
			list = append(list, pref.Entry{Partner: i, ReqCost: d.reqCost[j][i], TaxiCost: d.taxiCost[i][j]})
		}
	}
	sort.SliceStable(list, func(a, b int) bool { return list[a].ReqCost < list[b].ReqCost })
	return list
}

func (d denseReference) taxiList(i int) []pref.Entry {
	var list []pref.Entry
	for j := range d.reqCost {
		if d.reqOK[j][i] && d.taxiOK[i][j] {
			list = append(list, pref.Entry{Partner: j, ReqCost: d.reqCost[j][i], TaxiCost: d.taxiCost[i][j]})
		}
	}
	sort.SliceStable(list, func(a, b int) bool { return list[a].TaxiCost < list[b].TaxiCost })
	return list
}

// sameEntries compares two lists entry by entry; +Inf costs compare
// equal to themselves.
func sameEntries(a, b []pref.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

func (d denseReference) check(t *testing.T, what string, mk *pref.Market) {
	t.Helper()
	if err := mk.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if mk.NumRequests() != len(d.reqCost) || mk.NumTaxis() != len(d.taxiCost) {
		t.Fatalf("%s: market is %dx%d, want %dx%d", what, mk.NumRequests(), mk.NumTaxis(), len(d.reqCost), len(d.taxiCost))
	}
	for j := range d.reqCost {
		if want, got := d.reqList(j), mk.ReqEntries(j); !sameEntries(got, want) {
			t.Fatalf("%s: request %d list\n got %v\nwant %v", what, j, got, want)
		}
	}
	for i := range d.taxiCost {
		if want, got := d.taxiList(i), mk.TaxiEntries(i); !sameEntries(got, want) {
			t.Fatalf("%s: taxi %d list\n got %v\nwant %v", what, i, got, want)
		}
	}
}

// randomFrame draws requests and taxis on a small integer grid, so
// distances tie often, with party sizes and seat counts that leave some
// pairs seat-infeasible.
func randomFrame(rng *rand.Rand) ([]fleet.Request, []fleet.Taxi) {
	pt := func() geo.Point { return geo.Point{X: float64(rng.Intn(7)), Y: float64(rng.Intn(7))} }
	reqs := make([]fleet.Request, 1+rng.Intn(7))
	for j := range reqs {
		reqs[j] = fleet.Request{ID: 100 + j, Pickup: pt(), Dropoff: pt(), Seats: rng.Intn(6)}
	}
	taxis := make([]fleet.Taxi, 1+rng.Intn(7))
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: 200 + i, Pos: pt(), Seats: rng.Intn(5)}
	}
	return reqs, taxis
}

// randomParams returns pref.Unbounded a quarter of the time and small
// finite thresholds otherwise, drawing each choice from intn.
func randomParams(intn func(int) int) pref.Params {
	if intn(4) == 0 {
		return pref.Unbounded()
	}
	p := pref.DefaultParams()
	p.Alpha = float64(intn(3))
	p.MaxPickup = float64(1 + intn(6))
	p.MaxNet = float64(intn(5) - 2)
	return p
}

// randomGroupUnits packs a random batch of the oldest requests into
// units on a request-only plane: maximum set packing prefers pairs to
// triples, so the units take random disjoint feasible groups, triples
// first, and every other request rides alone. It draws each choice
// from intn and returns the plane with the units.
func randomGroupUnits(t testing.TB, reqs []fleet.Request, m geo.Metric, cfg PackConfig, intn func(int) int) (*costplane.Plane, []Unit) {
	t.Helper()
	n := min(len(reqs), 2+intn(len(reqs)))
	base := costplane.Build(reqs, nil, m, costplane.Config{Workers: 1, Pairs: n >= 2, PairRows: n, PairRadius: cfg.PairRadius})
	groups, err := FeasibleGroupsPlane(n, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(groups, func(a, b Group) int { return len(b.Members) - len(a.Members) })
	var res PackResult
	taken := make([]bool, len(reqs))
	for _, gr := range groups {
		if intn(2) == 0 || slices.ContainsFunc(gr.Members, func(idx int) bool { return taken[idx] }) {
			continue
		}
		for _, idx := range gr.Members {
			taken[idx] = true
		}
		res.Groups = append(res.Groups, gr)
	}
	for idx := range reqs {
		if !taken[idx] {
			res.Singles = append(res.Singles, idx)
		}
	}
	return base, res.UnitsPlane(base)
}

// TestMarketConstructionMatchesDenseReference pins both market builders
// to the dense construction on random small planes with pruned +Inf
// cells (the prune radius is drawn independently of the thresholds, so
// unbounded params meet pruned cells too), cost ties, seat-infeasible
// pairs and unbounded params.
func TestMarketConstructionMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 400; trial++ {
		reqs, taxis := randomFrame(rng)
		params := randomParams(rng.Intn)
		prune := []float64{0, 2, 3.5}[rng.Intn(3)]
		pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, PruneRadius: prune})

		inst, err := pref.FromPlane(pl, params)
		if err != nil {
			t.Fatal(err)
		}
		d := newDenseReference(len(reqs), len(taxis))
		for i, tx := range taxis {
			for j, r := range reqs {
				pickup := pl.PickupDist(i, j)
				d.set(j, i, pickup, pickup-params.Alpha*pl.Trip(j), tx.Capacity() >= r.SeatCount(), params)
			}
		}
		d.check(t, "FromPlane", &inst.Market)

		units := randomUnits(t, rng, pl)
		mk, err := BuildMarketPlane(units, taxis, pl, params)
		if err != nil {
			t.Fatal(err)
		}
		d = newDenseReference(len(units), len(taxis))
		for k, u := range units {
			start := -1
			for _, idx := range u.Members {
				if reqs[idx].ID == u.Plan.Stops[0].RequestID {
					start = idx
				}
			}
			pc, tc := u.passengerCost(pl.Trips(), params.Beta), u.taxiCost(pl.Trips(), params.Alpha)
			for i, tx := range taxis {
				lead := pl.PickupDist(i, start)
				d.set(k, i, lead+pc, lead+tc, tx.Capacity() >= u.Plan.MaxLoad, params)
			}
		}
		d.check(t, "BuildMarketPlane", mk)
	}
}

// TestBuildMarketPlaneRejectsBadUnits checks the start-request→unit
// index refuses units it cannot represent: a unit whose route starts
// outside its members, and two units starting at the same request.
func TestBuildMarketPlaneRejectsBadUnits(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 7, Pickup: geo.Point{X: 0, Y: 0}, Dropoff: geo.Point{X: 3, Y: 4}},
		{ID: 8, Pickup: geo.Point{X: 1, Y: 0}, Dropoff: geo.Point{X: 1, Y: 4}},
	}
	taxis := []fleet.Taxi{{ID: 1, Pos: geo.Point{X: 0, Y: 1}, Seats: 4}}
	pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1})
	foreign := SingleUnitPlane(0, pl)
	foreign.Members = []int{1}
	for name, units := range map[string][]Unit{
		"start outside members": {foreign},
		"shared start":          {SingleUnitPlane(0, pl), SingleUnitPlane(0, pl)},
	} {
		if _, err := BuildMarketPlane(units, taxis, pl, pref.DefaultParams()); err == nil {
			t.Errorf("%s: BuildMarketPlane accepted the units", name)
		}
	}
	if _, err := BuildMarketPlane([]Unit{SingleUnitPlane(0, pl), SingleUnitPlane(1, pl)}, taxis, pl, pref.DefaultParams()); err != nil {
		t.Errorf("disjoint units rejected: %v", err)
	}
}

// randomUnits packs a random prefix of the plane's requests (groups of
// up to three with a generous detour bound) and rides the rest alone.
func randomUnits(t *testing.T, rng *rand.Rand, pl *costplane.Plane) []Unit {
	t.Helper()
	n := rng.Intn(len(pl.Requests) + 1)
	res, err := PackPlane(n, pl, PackConfig{Theta: 4, MaxGroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	units := res.UnitsPlane(pl)
	for idx := n; idx < len(pl.Requests); idx++ {
		units = append(units, SingleUnitPlane(idx, pl))
	}
	return units
}

// TestFeasibleGroupsPlaneUntracedAllocs bounds the allocations of group
// enumeration with tracing off. A candidate group is judged in the route
// search's fixed arrays and allocates nothing; only a feasible group
// allocates its members and RoutePlan. That is 91 allocations over this
// batch with Go 1.24. The trace detail of each candidate, a formatted
// string the recorder would drop, must not be built at all: formatting
// the detour and savings details alone takes the count to about 600.
func TestFeasibleGroupsPlaneUntracedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reqs := randomRequests(rng, 24)
	cfg := PackConfig{Theta: 3, MaxGroupSize: 3, PairRadius: 4}
	pl := costplane.Build(reqs, nil, geo.EuclidMetric, costplane.Config{Workers: 1, Pairs: true, PairRadius: cfg.PairRadius})
	candidates := 0
	for a := range reqs {
		for b := a + 1; b < len(reqs); b++ {
			if pl.PairDist(a, b) <= cfg.PairRadius {
				candidates++
			}
		}
	}
	if candidates < 50 {
		t.Fatalf("fixture too sparse: %d candidate pairs", candidates)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := FeasibleGroupsPlane(len(reqs), pl, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 100.0; allocs > limit {
		t.Errorf("FeasibleGroupsPlane allocates %.0f times untraced over %d candidate pairs, limit %.0f", allocs, candidates, limit)
	}
}

// TestBatchPairRowsMatchFullPlane pins that a plane whose pair rows
// cover only the packing batch — the dispatcher's configuration: pairs
// for a batch of at least two, PairRows = n — yields the same feasible
// groups and packing as a plane holding every pair. Pickups sit on an
// integer grid, so they tie and sit exactly PairRadius apart, and the
// radius prunes pair and taxi cells.
func TestBatchPairRowsMatchFullPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	pt := func() geo.Point { return geo.Point{X: float64(rng.Intn(7)), Y: float64(rng.Intn(7))} }
	cfg := PackConfig{Theta: 3, MaxGroupSize: 3, PairRadius: 2}
	var ties, onRadius, pruned, groups int
	for trial := 0; trial < 80; trial++ {
		reqs := make([]fleet.Request, 3+rng.Intn(22))
		for j := range reqs {
			reqs[j] = fleet.Request{ID: 100 + j, Pickup: pt(), Dropoff: pt(), Seats: rng.Intn(3)}
		}
		taxis := make([]fleet.Taxi, 1+rng.Intn(5))
		for i := range taxis {
			taxis[i] = fleet.Taxi{ID: 200 + i, Pos: pt(), Seats: 4}
		}
		full := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, PruneRadius: 3, Pairs: true, PairRadius: cfg.PairRadius})
		for a := range reqs {
			for b := a + 1; b < len(reqs); b++ {
				switch d := full.PairDist(a, b); {
				case d == 0:
					ties++
				case d == cfg.PairRadius:
					onRadius++
				case math.IsInf(d, 1):
					pruned++
				}
			}
		}
		r := len(reqs)
		for _, n := range []int{0, 1, 2, r - 1, r} {
			pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{
				Workers: 1, PruneRadius: 3, Pairs: n >= 2, PairRows: n, PairRadius: cfg.PairRadius,
			})
			want, err := FeasibleGroupsPlane(n, full, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FeasibleGroupsPlane(n, pl, cfg)
			if err != nil {
				t.Fatalf("trial %d n=%d: %v", trial, n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d: batch-row plane groups %v, full plane %v", trial, n, got, want)
			}
			groups += len(got)
			wantPack, err := PackPlane(n, full, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotPack, err := PackPlane(n, pl, cfg)
			if err != nil {
				t.Fatalf("trial %d n=%d: %v", trial, n, err)
			}
			if !reflect.DeepEqual(gotPack, wantPack) {
				t.Fatalf("trial %d n=%d: batch-row plane packing %+v, full plane %+v", trial, n, gotPack, wantPack)
			}
		}
	}
	if ties == 0 || onRadius == 0 || pruned == 0 || groups == 0 {
		t.Fatalf("fixtures miss a case: %d tied pickups, %d pairs on the radius, %d pruned pairs, %d groups", ties, onRadius, pruned, groups)
	}
}

// TestFeasibleGroupsPlaneShortPairRows checks a batch the plane's pair
// rows do not cover is an error, not an index panic, whenever group
// formation would read pair distances; without PairRadius pruning it
// reads none, so any plane serves.
func TestFeasibleGroupsPlaneShortPairRows(t *testing.T) {
	reqs := randomRequests(rand.New(rand.NewSource(8)), 10)
	cfg := DefaultPackConfig()
	short := costplane.Build(reqs, nil, geo.EuclidMetric, costplane.Config{Workers: 1, Pairs: true, PairRows: 6, PairRadius: cfg.PairRadius})
	none := costplane.Build(reqs, nil, geo.EuclidMetric, costplane.Config{Workers: 1})
	unpruned := cfg
	unpruned.PairRadius = 0
	for _, tc := range []struct {
		name    string
		n       int
		pl      *costplane.Plane
		cfg     PackConfig
		wantErr bool
	}{
		{"batch inside the pair rows", 6, short, cfg, false},
		{"batch past the pair rows", 7, short, cfg, true},
		{"whole queue past the pair rows", 10, short, cfg, true},
		{"no pair rows, one request", 1, none, cfg, false},
		{"no pair rows, two requests", 2, none, cfg, true},
		{"no pruning reads no pairs", 10, short, unpruned, false},
		{"batch past the queue", 11, short, unpruned, true},
		{"negative batch", -1, short, cfg, true},
	} {
		_, err := FeasibleGroupsPlane(tc.n, tc.pl, tc.cfg)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: FeasibleGroupsPlane(%d) err = %v, wantErr %v", tc.name, tc.n, err, tc.wantErr)
		}
	}
}

// BenchmarkFeasibleGroupsPlane times Algorithm 3's group formation on
// one packing batch: the DefaultPackBatch-sized prefix of a calibrated
// New York rush-hour queue, the batch dispatch.STD packs every frame.
func BenchmarkFeasibleGroupsPlane(b *testing.B) {
	reqs, err := trace.Generate(trace.NewYorkConfig(600, 1))
	if err != nil {
		b.Fatal(err)
	}
	start := sort.Search(len(reqs), func(j int) bool { return reqs[j].Frame >= 480 })
	if len(reqs)-start < 100 {
		b.Fatalf("trace holds %d requests from 08:00, want a batch of 100", len(reqs)-start)
	}
	batch := reqs[start : start+100]
	cfg := DefaultPackConfig()
	pl := costplane.Build(batch, nil, geo.EuclidMetric, costplane.Config{Workers: 1, Pairs: true, PairRows: len(batch), PairRadius: cfg.PairRadius})
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := FeasibleGroupsPlane(len(batch), pl, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// preparedUnits returns units prepared on base under params, as STD
// prepares its frame's units.
func preparedUnits(t testing.TB, units []Unit, base *costplane.Plane, params pref.Params) *Units {
	t.Helper()
	us := &Units{List: units}
	if err := us.Prepare(base, params); err != nil {
		t.Fatal(err)
	}
	return us
}

// fillUnitRows fills into base, in place, the taxi rows of the unit
// market of us, at the unit radii, and returns base.
func fillUnitRows(base *costplane.Plane, us *Units, taxis []fleet.Taxi, workers int) *costplane.Plane {
	base.FillTaxis(taxis, workers, func(_, dst []float64) []float64 { return us.AppendRadii(dst) })
	return base
}

// TestUnitPlaneMarketMatchesPickupPlane pins the dispatcher's pruning
// of its taxi rows: the market built on a plane whose rows cover only
// unit-start columns, each at its Units.AppendRadii radius, deep-equals the
// market on a plane pruned at MaxPickup alone, and so do the
// passenger- and taxi-optimal matchings STD-P and STD-T take from it.
// Frames run under Euclid, Manhattan and a road grid whose island node
// makes some dropoffs unreachable (NaN unit constants), with the default
// thresholds, α = 0, both thresholds +Inf and random small ones. Riders
// carry up to three seats and taxis two to four, so some triples lack
// seats in some taxis, and extra taxis sit exactly on a unit's radius.
func TestUnitPlaneMarketMatchesPickupPlane(t *testing.T) {
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 11, Cols: 11, Spacing: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	island := g.AddNode(geo.Point{X: 14, Y: 14}) // no edges: unreachable from the grid
	metrics := []struct {
		name string
		m    geo.Metric
	}{{"euclid", geo.EuclidMetric}, {"manhattan", geo.ManhattanMetric}, {"roadnet", roadnet.NewMetric(g, 64)}}
	alpha0 := pref.DefaultParams()
	alpha0.Alpha = 0
	cfg := PackConfig{Theta: 4, MaxGroupSize: 3, PairRadius: 4}
	rng := rand.New(rand.NewSource(20261018))
	pt := func() geo.Point { return geo.Point{X: float64(rng.Intn(11)), Y: float64(rng.Intn(11))} }
	var nanUnits, infeasibleTriples, onRadius, leftOut, accepted int
	for _, mc := range metrics {
		for trial := 0; trial < 60; trial++ {
			reqs := make([]fleet.Request, 4+rng.Intn(27))
			for j := range reqs {
				reqs[j] = fleet.Request{ID: 100 + j, Pickup: pt(), Dropoff: pt(), Seats: 1 + rng.Intn(3)}
				if mc.name == "roadnet" && rng.Intn(6) == 0 {
					reqs[j].Dropoff = g.Node(island)
				}
			}
			base, units := randomGroupUnits(t, reqs, mc.m, cfg, rng.Intn)
			for _, params := range []pref.Params{pref.DefaultParams(), alpha0, pref.Unbounded(), randomParams(rng.Intn)} {
				us := preparedUnits(t, units, base, params)
				c := &us.costs
				taxis := make([]fleet.Taxi, 3+rng.Intn(10))
				for i := range taxis {
					taxis[i] = fleet.Taxi{ID: 200 + i, Pos: pt(), Seats: 2 + rng.Intn(3)}
				}
				for k, u := range units {
					pc, tc := c.passengerConst[k], c.taxiConst[k]
					if math.IsNaN(pc) || math.IsNaN(tc) {
						nanUnits++
					}
					// A taxi due east of the unit's start at its exact
					// (unwidened) radius.
					r := min(params.MaxPickup-pc, params.MaxNet-tc)
					if r >= 0 && !math.IsInf(r, 0) {
						start := u.Start()
						taxis = append(taxis, fleet.Taxi{ID: 300 + k, Pos: geo.Point{X: start.X + r, Y: start.Y}, Seats: 4})
						onRadius++
					}
				}
				for _, u := range units {
					for _, tx := range taxis {
						if len(u.Members) == 3 && tx.Capacity() < u.Plan.MaxLoad {
							infeasibleTriples++
						}
					}
				}
				unitPl := fillUnitRows(base, us, taxis, 1+rng.Intn(3))
				pickupPl := costplane.Build(reqs, taxis, mc.m, costplane.Config{
					Workers: 1, PruneRadius: params.MaxPickup, Pairs: true, PairRows: base.PairRows(), PairRadius: cfg.PairRadius,
				})
				want, err := BuildMarketPlane(units, taxis, pickupPl, params)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildMarketPlane(units, taxis, unitPl, params)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d params %+v: unit-pruned market differs from the MaxPickup plane's", mc.name, trial, params)
				}
				if !reflect.DeepEqual(stable.PassengerOptimal(got), stable.PassengerOptimal(want)) ||
					!reflect.DeepEqual(stable.TaxiOptimal(got), stable.TaxiOptimal(want)) {
					t.Fatalf("%s trial %d params %+v: matchings differ", mc.name, trial, params)
				}
				leftOut += pickupPl.Entries() - unitPl.Entries()
				for i := range taxis {
					accepted += len(got.TaxiEntries(i))
				}
			}
		}
	}
	if nanUnits == 0 || infeasibleTriples == 0 || onRadius == 0 || leftOut <= 0 || accepted == 0 {
		t.Fatalf("fixtures miss a case: %d NaN-constant units, %d seat-infeasible triples, %d taxis on a radius, %d cells left out, %d acceptable pairs",
			nanUnits, infeasibleTriples, onRadius, leftOut, accepted)
	}
}

// TestUnitRadiiNeverExceedMaxPickup checks the cap that keeps the unit
// plane's cells a subset of the MaxPickup plane's: a hand-built unit
// whose on-board leg is shorter than its solo trip (a negative
// passenger constant, which float rounding can produce on real routes)
// would otherwise widen its radius past MaxPickup and admit a taxi the
// MaxPickup plane prunes.
func TestUnitRadiiNeverExceedMaxPickup(t *testing.T) {
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 0, Y: 0}, Dropoff: geo.Point{X: 4, Y: 0}}}
	taxis := []fleet.Taxi{{ID: 9, Pos: geo.Point{X: 10.25, Y: 0}, Seats: 4}}
	params := pref.DefaultParams()
	params.MaxNet = math.Inf(1)
	base := costplane.Build(reqs, nil, geo.EuclidMetric, costplane.Config{Workers: 1})
	u := SingleUnitPlane(0, base)
	u.Plan.OnBoard[0] -= 0.5
	units := []Unit{u}
	us := preparedUnits(t, units, base, params)
	if radii := us.AppendRadii(nil); radii[0] != params.MaxPickup {
		t.Fatalf("radius %v, want the MaxPickup cap %v", radii[0], params.MaxPickup)
	}
	pickupPl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, PruneRadius: params.MaxPickup})
	want, err := BuildMarketPlane(units, taxis, pickupPl, params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildMarketPlane(units, taxis, fillUnitRows(base, us, taxis, 1), params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("unit-pruned market differs from the MaxPickup plane's")
	}
}
