package pref

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/roadnet"
)

func simpleInstance(t *testing.T, params Params) *Instance {
	t.Helper()
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 0, Y: 0}, Dropoff: geo.Point{X: 4, Y: 0}},
		{ID: 1, Pickup: geo.Point{X: 10, Y: 0}, Dropoff: geo.Point{X: 10, Y: 1}},
	}
	taxis := []fleet.Taxi{
		{ID: 0, Pos: geo.Point{X: 1, Y: 0}},
		{ID: 1, Pos: geo.Point{X: 9, Y: 0}},
	}
	inst, err := NewInstance(reqs, taxis, geo.EuclidMetric, params)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		params  Params
		wantErr bool
	}{
		{name: "defaults", params: DefaultParams()},
		{name: "unbounded", params: Unbounded()},
		{name: "negative alpha", params: Params{Alpha: -1}, wantErr: true},
		{name: "negative beta", params: Params{Beta: -0.5}, wantErr: true},
		{name: "nan threshold", params: Params{MaxPickup: math.NaN()}, wantErr: true},
		{name: "nan net", params: Params{MaxNet: math.NaN()}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.params.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewInstanceRejectsBadParams(t *testing.T) {
	if _, err := NewInstance(nil, nil, geo.EuclidMetric, Params{Alpha: -1}); err == nil {
		t.Error("NewInstance accepted invalid params")
	}
}

func TestInstanceDistances(t *testing.T) {
	inst := simpleInstance(t, Unbounded())
	if got := inst.TripDist[0]; got != 4 {
		t.Errorf("TripDist[0] = %v, want 4", got)
	}
	if got := inst.TripDist[1]; got != 1 {
		t.Errorf("TripDist[1] = %v, want 1", got)
	}
	if got := inst.PickupDist(0, 0); got != 1 {
		t.Errorf("PickupDist[0][0] = %v, want 1", got)
	}
	if got := inst.PickupDist(1, 0); got != 9 {
		t.Errorf("PickupDist[1][0] = %v, want 9", got)
	}
}

// entry returns the stored pair (j, i) as request j lists it.
func entry(t *testing.T, m *Market, j, i int) Entry {
	t.Helper()
	k := m.ReqRank(j, i)
	if k < 0 {
		t.Fatalf("pair (r%d, t%d) is not stored", j, i)
	}
	return m.ReqEntries(j)[k]
}

func TestInterestModelCosts(t *testing.T) {
	params := Unbounded()
	params.Alpha = 2
	inst := simpleInstance(t, params)

	// Passenger cost is the pickup distance.
	if got := entry(t, &inst.Market, 0, 0).ReqCost; got != 1 {
		t.Errorf("ReqCost(r0, t0) = %v, want 1", got)
	}
	// Taxi cost is pickup - alpha * trip: 1 - 2*4 = -7.
	if got := entry(t, &inst.Market, 0, 0).TaxiCost; got != -7 {
		t.Errorf("TaxiCost(t0, r0) = %v, want -7", got)
	}
	// Taxi 1 serving request 0: 9 - 2*4 = 1.
	if got := entry(t, &inst.Market, 0, 1).TaxiCost; got != 1 {
		t.Errorf("TaxiCost(t1, r0) = %v, want 1", got)
	}
	// The taxi's list carries the same pair with the same costs.
	if e := inst.TaxiEntries(1)[inst.TaxiRank(1, 0)]; e.ReqCost != 9 || e.TaxiCost != 1 {
		t.Errorf("taxi 1's entry for r0 = %+v, want costs 9 and 1", e)
	}
}

func TestDummyThresholds(t *testing.T) {
	params := Params{Alpha: 1, Beta: 1, MaxPickup: 2, MaxNet: 0}
	inst := simpleInstance(t, params)

	// Taxi 1 is 9 km from request 0's pickup: behind the passenger
	// dummy.
	if inst.MutualOK(0, 1) {
		t.Error("MutualOK(0, 1) = true, want false (beyond MaxPickup)")
	}
	// Taxi 0 is 1 km away and nets 1 - 4 = -3 <= 0: acceptable to both.
	if !inst.MutualOK(0, 0) {
		t.Error("MutualOK(0, 0) = false, want true")
	}
	// Taxi 1 on request 1 is 1 km away and nets 1 - 1 = 0 <= 0:
	// acceptable to both.
	if !inst.MutualOK(1, 1) {
		t.Error("MutualOK(1, 1) = false, want true")
	}
	// Taxi 0 on request 1 nets 9 - 1 = 8 > 0: behind the taxi dummy.
	if inst.MutualOK(1, 0) {
		t.Error("MutualOK(1, 0) = true, want false (beyond MaxNet)")
	}
	if got := len(inst.byReq); got != 2 {
		t.Errorf("%d pairs stored, want 2", got)
	}
}

func TestSeatInfeasiblePairsBehindDummies(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{}, Dropoff: geo.Point{X: 1}, Seats: 5},
	}
	taxis := []fleet.Taxi{
		{ID: 0, Pos: geo.Point{X: 0.1}, Seats: 4},
		{ID: 1, Pos: geo.Point{X: 0.2}, Seats: 6},
	}
	inst, err := NewInstance(reqs, taxis, geo.EuclidMetric, Unbounded())
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if inst.MutualOK(0, 0) || inst.TaxiRank(0, 0) >= 0 {
		t.Error("seat-infeasible pair (r0, t0) must be behind both dummies")
	}
	if !inst.MutualOK(0, 1) || inst.TaxiRank(1, 0) != 0 {
		t.Error("seat-feasible pair (r0, t1) must be acceptable")
	}
}

func TestMarketValidate(t *testing.T) {
	inst := simpleInstance(t, DefaultParams())
	if err := inst.Market.Validate(); err != nil {
		t.Errorf("Validate on well-formed market: %v", err)
	}

	bad := inst.Market
	bad.reqStart = bad.reqStart[:1]
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted inconsistent row bounds")
	}

	nan := NewMarket(1, 1, []Pair{{Req: 0, Taxi: 0, ReqCost: 1, TaxiCost: math.NaN()}})
	if err := nan.Validate(); err == nil {
		t.Error("Validate accepted NaN cost")
	}

	twice := NewMarket(1, 1, []Pair{{Req: 0, Taxi: 0, ReqCost: 1, TaxiCost: 2}, {Req: 0, Taxi: 0, ReqCost: 1, TaxiCost: 2}})
	if err := twice.Validate(); err == nil {
		t.Error("Validate accepted a pair stored twice")
	}
}

func TestPreferenceOrdering(t *testing.T) {
	inst := simpleInstance(t, Unbounded())
	// Request 0: taxi 0 at distance 1 beats taxi 1 at distance 9.
	if !inst.ReqPrefers(0, 0, 1) {
		t.Error("ReqPrefers(0, 0, 1) = false")
	}
	if inst.ReqPrefers(0, 1, 0) {
		t.Error("ReqPrefers(0, 1, 0) = true")
	}
	list := inst.ReqPrefList(0)
	if len(list) != 2 || list[0] != 0 || list[1] != 1 {
		t.Errorf("ReqPrefList(0) = %v, want [0 1]", list)
	}
}

func TestTieBreakByIndex(t *testing.T) {
	m := NewMarket(1, 2, []Pair{
		{Req: 0, Taxi: 1, ReqCost: 5, TaxiCost: 3},
		{Req: 0, Taxi: 0, ReqCost: 5, TaxiCost: 3},
	})
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !m.ReqPrefers(0, 0, 1) || m.ReqPrefers(0, 1, 0) {
		t.Error("request tie must break toward the lower taxi index")
	}
	if !m.TaxiPrefers(0, 0, 0) == false {
		// Self-comparison is never a strict preference.
		t.Error("TaxiPrefers(i, j, j) must be false")
	}
}

func TestTaxiPrefList(t *testing.T) {
	inst := simpleInstance(t, Unbounded())
	// Taxi 0 costs: r0 = 1-4 = -3, r1 = 10-1 = 9. So r0 first.
	list := inst.TaxiPrefList(0)
	if len(list) != 2 || list[0] != 0 || list[1] != 1 {
		t.Errorf("TaxiPrefList(0) = %v, want [0 1]", list)
	}
}

func TestPrefListExcludesNonMutual(t *testing.T) {
	inst := simpleInstance(t, DefaultParams())
	// With MaxNet = 0, taxi 0 rejects request 1 (net 8 > 0), so taxi 0
	// must not appear in request 1's list even though the passenger
	// side accepts it (9 km < 10 km MaxPickup).
	for _, i := range inst.ReqPrefList(1) {
		if i == 0 {
			t.Error("ReqPrefList(1) contains taxi 0 despite taxi-side rejection")
		}
	}
}

func TestDissatisfactionHelpers(t *testing.T) {
	r := fleet.Request{Pickup: geo.Point{X: 3, Y: 4}, Dropoff: geo.Point{X: 3, Y: 10}}
	pos := geo.Point{}
	if got := PassengerDissatisfaction(pos, r, geo.EuclidMetric); got != 5 {
		t.Errorf("PassengerDissatisfaction = %v, want 5", got)
	}
	// 5 - 2*6 = -7.
	if got := TaxiDissatisfaction(pos, r, geo.EuclidMetric, 2); got != -7 {
		t.Errorf("TaxiDissatisfaction = %v, want -7", got)
	}
}

func TestCostsMatchDissatisfactionMetrics(t *testing.T) {
	// The market costs must be exactly the paper's dissatisfaction
	// metrics, for any instance.
	rng := rand.New(rand.NewSource(10))
	var reqs []fleet.Request
	var taxis []fleet.Taxi
	for j := 0; j < 8; j++ {
		reqs = append(reqs, fleet.Request{
			ID:      j,
			Pickup:  geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Dropoff: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
		})
	}
	for i := 0; i < 5; i++ {
		taxis = append(taxis, fleet.Taxi{
			ID:  i,
			Pos: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
		})
	}
	params := DefaultParams()
	inst, err := NewInstance(reqs, taxis, geo.EuclidMetric, params)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	for i, taxi := range taxis {
		for j, req := range reqs {
			wantP := PassengerDissatisfaction(taxi.Pos, req, geo.EuclidMetric)
			wantT := TaxiDissatisfaction(taxi.Pos, req, geo.EuclidMetric, params.Alpha)
			if !inst.MutualOK(j, i) {
				if wantP <= params.MaxPickup && wantT <= params.MaxNet {
					t.Fatalf("pair (r%d, t%d) within both thresholds is not stored", j, i)
				}
				continue
			}
			e := entry(t, &inst.Market, j, i)
			if got := e.ReqCost; math.Abs(got-wantP) > 1e-12 {
				t.Fatalf("ReqCost(r%d, t%d) = %v, want %v", j, i, got, wantP)
			}
			if got := e.TaxiCost; math.Abs(got-wantT) > 1e-12 {
				t.Fatalf("TaxiCost(t%d, r%d) = %v, want %v", i, j, got, wantT)
			}
		}
	}
}

func TestSplitOversized(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 0, Seats: 2},
		{ID: 1, Seats: 9},
		{ID: 2, Seats: 4},
	}
	got := SplitOversized(reqs, 4, 100)
	// 9 seats splits into 4 + 4 + 1.
	if len(got) != 5 {
		t.Fatalf("got %d requests, want 5: %+v", len(got), got)
	}
	totalSeats := 0
	ids := make(map[int]bool)
	for _, r := range got {
		if r.SeatCount() > 4 {
			t.Errorf("request %d still oversized: %d seats", r.ID, r.SeatCount())
		}
		if ids[r.ID] {
			t.Errorf("duplicate ID %d", r.ID)
		}
		ids[r.ID] = true
		totalSeats += r.SeatCount()
	}
	if totalSeats != 2+9+4 {
		t.Errorf("total seats = %d, want 15", totalSeats)
	}
	// The oversized request keeps its original ID for the first part.
	if !ids[1] || !ids[100] || !ids[101] {
		t.Errorf("ids = %v, want 1, 100, 101 present", ids)
	}
}

func TestSplitOversizedPassThrough(t *testing.T) {
	reqs := []fleet.Request{{ID: 0, Seats: 3}, {ID: 1}}
	got := SplitOversized(reqs, 4, 50)
	if len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Errorf("pass-through changed requests: %+v", got)
	}
	// Degenerate maxSeats clamps to 1.
	got = SplitOversized([]fleet.Request{{ID: 0, Seats: 2}}, 0, 10)
	if len(got) != 2 {
		t.Errorf("maxSeats=0: got %d requests, want 2", len(got))
	}
}

// TestFromPlaneAllocatesOnlyAcceptablePairs pins the sparse layout: on a
// 400×400 plane with at most 2% mutually acceptable cells, building the
// market allocates under an eighth of the R·T·18 bytes the dense layout
// took (two float64 and two bool matrices).
func TestFromPlaneAllocatesOnlyAcceptablePairs(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(3))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 38, Y: rng.Float64() * 38} }
	reqs := make([]fleet.Request, n)
	taxis := make([]fleet.Taxi, n)
	for k := 0; k < n; k++ {
		reqs[k] = fleet.Request{ID: k, Pickup: pt(), Dropoff: pt()}
		taxis[k] = fleet.Taxi{ID: k, Pos: pt()}
	}
	params := DefaultParams()
	params.MaxPickup = 3
	pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, PruneRadius: params.MaxPickup})

	const runs = 10
	var inst *Instance
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		var err error
		if inst, err = FromPlane(pl, params); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)

	frac := float64(len(inst.byReq)) / (n * n)
	if frac == 0 || frac > 0.02 {
		t.Fatalf("fixture has %.2f%% mutually acceptable cells, want (0, 2%%]", 100*frac)
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if dense := float64(n * n * 18); perRun >= dense/8 {
		t.Errorf("FromPlane allocates %.0f bytes per build at %.2f%% acceptable, want under %.0f (1/8 of dense)", perRun, 100*frac, dense/8)
	}
	t.Logf("%.0f bytes per build, %d pairs (%.2f%%)", perRun, len(inst.byReq), 100*frac)
}

// BenchmarkFromPlane builds the market of a city-like 700-taxi ×
// 400-request frame whose pickup threshold keeps a few percent of the
// cells.
func BenchmarkFromPlane(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 110, Y: rng.Float64() * 110} }
	reqs := make([]fleet.Request, 400)
	for j := range reqs {
		reqs[j] = fleet.Request{ID: j, Pickup: pt(), Dropoff: pt()}
	}
	taxis := make([]fleet.Taxi, 700)
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: i, Pos: pt()}
	}
	params := DefaultParams()
	pl := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, PruneRadius: params.MaxPickup})
	b.ReportAllocs()
	b.ResetTimer()
	var inst *Instance
	for k := 0; k < b.N; k++ {
		var err error
		if inst, err = FromPlane(pl, params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(inst.byReq))/float64(pl.Cells()), "acceptable/cell")
}

// diffMarkets returns the first row where two markets differ, or "".
func diffMarkets(got, want *Market) string {
	if got.NumRequests() != want.NumRequests() || got.NumTaxis() != want.NumTaxis() {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.NumRequests(), got.NumTaxis(), want.NumRequests(), want.NumTaxis())
	}
	for j := 0; j < want.NumRequests(); j++ {
		if g, w := got.ReqEntries(j), want.ReqEntries(j); !slices.Equal(g, w) {
			return fmt.Sprintf("request %d lists %v, want %v", j, g, w)
		}
	}
	for i := 0; i < want.NumTaxis(); i++ {
		if g, w := got.TaxiEntries(i), want.TaxiEntries(i); !slices.Equal(g, w) {
			return fmt.Sprintf("taxi %d lists %v, want %v", i, g, w)
		}
	}
	return ""
}

// boundaryMetrics are the three metric kinds the threshold prune must be
// exact under: the straight line itself, a scalar metric strictly above
// it, and a batching road network. The road grid has unit blocks and no
// jitter, so integer points sit on intersections and road distances are
// integers too.
func boundaryMetrics(t *testing.T) []struct {
	name string
	m    geo.Metric
} {
	t.Helper()
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 16, Cols: 16, Spacing: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		m    geo.Metric
	}{{"euclid", geo.EuclidMetric}, {"manhattan", geo.ManhattanMetric}, {"road", roadnet.NewMetric(g, 64)}}
}

// checkThresholdPlane builds the market from the Plane under params
// and from an unpruned plane and requires them to be identical, with
// every stored cell equal to the unpruned plane's value.
func checkThresholdPlane(t *testing.T, label string, reqs []fleet.Request, taxis []fleet.Taxi, m geo.Metric, params Params) *costplane.Plane {
	t.Helper()
	pruned := Plane(nil, reqs, taxis, m, params, 1)
	full := costplane.Build(reqs, taxis, m, costplane.Config{Workers: 1})
	for i := range taxis {
		for _, e := range pruned.PickupRow(i) {
			if want := full.PickupDist(i, int(e.Req)); e.Dist != want {
				t.Fatalf("%s: stored cell (t%d, r%d) = %v, want %v", label, i, e.Req, e.Dist, want)
			}
		}
	}
	got, err := FromPlane(pruned, params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromPlane(full, params)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMarkets(&got.Market, &want.Market); d != "" {
		t.Fatalf("%s: threshold plane's market differs from the unpruned one: %s", label, d)
	}
	return pruned
}

// TestThresholdPlaneMatchesUnprunedMarket is the boundary-exactness
// property of the threshold prune: on Euclid, Manhattan and the road
// metric, the market from a plane pruned at min(MaxPickup,
// MaxNet + α·trip) equals the market from an unpruned plane. The fixed
// frame uses 3-4-5 geometry, so pickups land exactly on r_j and on
// MaxPickup and several taxis tie; the cases cover α = 0, a negative
// radius (every row empty) and Unbounded (every row full). Random
// integer-grid frames then draw thresholds that hit the boundaries
// often.
func TestThresholdPlaneMatchesUnprunedMarket(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 5, Y: 5}, Dropoff: geo.Point{X: 8, Y: 9}},  // trip 5 (7 on the grid)
		{ID: 1, Pickup: geo.Point{X: 5, Y: 5}, Dropoff: geo.Point{X: 5, Y: 10}}, // trip 5 on every metric
		{ID: 2, Pickup: geo.Point{X: 9, Y: 8}, Dropoff: geo.Point{X: 9, Y: 8}},  // zero trip
	}
	var taxis []fleet.Taxi
	for k, off := range []geo.Point{{X: 3, Y: 4}, {X: 4, Y: 3}, {X: 0, Y: 5}, {X: 5, Y: 0}, {X: 6, Y: 8}, {X: 0, Y: 10}, {X: 1, Y: 1}, {X: 0, Y: 0}, {X: 7, Y: 7}} {
		taxis = append(taxis, fleet.Taxi{ID: k, Pos: geo.Point{X: 5, Y: 5}.Add(off), Seats: 4})
	}
	inf := math.Inf(1)
	cases := []struct {
		name   string
		params Params
		empty  bool
		full   bool
	}{
		{name: "r_j equals MaxPickup", params: Params{Alpha: 1, Beta: 1, MaxPickup: 5, MaxNet: 0}},
		{name: "r_j from MaxNet", params: Params{Alpha: 1, Beta: 1, MaxPickup: 10, MaxNet: 5}},
		{name: "alpha zero", params: Params{Alpha: 0, Beta: 1, MaxPickup: 10, MaxNet: 5}},
		{name: "fractional alpha", params: Params{Alpha: 0.5, Beta: 1, MaxPickup: 10, MaxNet: 2.5}},
		{name: "net only", params: Params{Alpha: 2, Beta: 1, MaxPickup: inf, MaxNet: 0}},
		{name: "pickup only", params: Params{Alpha: 1, Beta: 1, MaxPickup: 5, MaxNet: inf}},
		{name: "negative radius", params: Params{Alpha: 1, Beta: 1, MaxPickup: 10, MaxNet: -20}, empty: true},
		{name: "unbounded", params: Unbounded(), full: true},
	}
	for _, mt := range boundaryMetrics(t) {
		for _, tc := range cases {
			label := mt.name + "/" + tc.name
			pl := checkThresholdPlane(t, label, reqs, taxis, mt.m, tc.params)
			switch {
			case tc.empty && pl.Entries() != 0:
				t.Errorf("%s: %d cells stored, want none", label, pl.Entries())
			case tc.full && pl.Entries() != pl.Cells():
				t.Errorf("%s: %d of %d cells stored, want all", label, pl.Entries(), pl.Cells())
			case !tc.empty && !tc.full && (pl.Entries() == 0 || pl.Entries() == pl.Cells()):
				t.Errorf("%s: %d of %d cells stored, want a proper subset", label, pl.Entries(), pl.Cells())
			}
		}
	}

	rng := rand.New(rand.NewSource(20261017))
	pt := func() geo.Point { return geo.Point{X: float64(rng.Intn(9)), Y: float64(rng.Intn(9))} }
	for trial := 0; trial < 300; trial++ {
		reqs := make([]fleet.Request, 1+rng.Intn(8))
		for j := range reqs {
			reqs[j] = fleet.Request{ID: j, Pickup: pt(), Dropoff: pt(), Seats: rng.Intn(4)}
		}
		taxis := make([]fleet.Taxi, 1+rng.Intn(8))
		for i := range taxis {
			taxis[i] = fleet.Taxi{ID: i, Pos: pt(), Seats: rng.Intn(5)}
		}
		params := Params{
			Alpha:     []float64{0, 0.5, 1, 2}[rng.Intn(4)],
			Beta:      1,
			MaxPickup: []float64{1, 2, 3, 5, 8, inf}[rng.Intn(6)],
			MaxNet:    []float64{-4, -1, 0, 1, 2, 5, inf}[rng.Intn(7)],
		}
		for _, mt := range boundaryMetrics(t) {
			checkThresholdPlane(t, fmt.Sprintf("%s/trial %d %+v", mt.name, trial, params), reqs, taxis, mt.m, params)
		}
	}
}

// TestThresholdPlaneStoresOnlyCandidates pins the sparse plane: on a
// city-like 700-taxi × 400-request frame at default params, the
// Plane stores at most 3% of the T·R cells and its build
// allocates under an eighth of the T·R·8 bytes a dense float64 plane
// took. Taxis and pickups spread over 50×50 km and trips are local
// (0.5 km plus an exponential 1.5 km), so MaxPickup alone would keep
// about four times as many cells as the net threshold does.
func TestThresholdPlaneStoresOnlyCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50} }
	reqs := make([]fleet.Request, 400)
	for j := range reqs {
		p := pt()
		trip, angle := 0.5+1.5*rng.ExpFloat64(), 2*math.Pi*rng.Float64()
		reqs[j] = fleet.Request{ID: j, Pickup: p, Dropoff: p.Add(geo.Point{X: trip * math.Cos(angle), Y: trip * math.Sin(angle)})}
	}
	taxis := make([]fleet.Taxi, 700)
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: i, Pos: pt()}
	}
	const runs = 10
	var pl *costplane.Plane
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		pl = Plane(nil, reqs, taxis, geo.EuclidMetric, DefaultParams(), 1)
	}
	runtime.ReadMemStats(&after)

	frac := float64(pl.Entries()) / float64(pl.Cells())
	if frac == 0 || frac > 0.03 {
		t.Errorf("plane stores %.2f%% of the cells, want (0, 3%%]", 100*frac)
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if dense := float64(pl.Cells() * 8); perRun >= dense/8 {
		t.Errorf("Plane allocates %.0f bytes per plane, want under %.0f (1/8 of dense)", perRun, dense/8)
	}
	pickupOnly := costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1, PruneRadius: DefaultParams().MaxPickup})
	t.Logf("%.0f bytes per build, %d entries (%.2f%% of cells; MaxPickup alone keeps %.2f%%)",
		perRun, pl.Entries(), 100*frac, 100*float64(pickupOnly.Entries())/float64(pl.Cells()))
}
