package pref

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// planeWorld returns nReqs requests with up to three seats and nTaxis
// four-seat taxis at uniform points of a 20×20 km box.
func planeWorld(nReqs, nTaxis int, seed int64) ([]fleet.Request, []fleet.Taxi) {
	rng := rand.New(rand.NewSource(seed))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20} }
	reqs := make([]fleet.Request, nReqs)
	for j := range reqs {
		reqs[j] = fleet.Request{ID: j, Pickup: pt(), Dropoff: pt(), Seats: 1 + rng.Intn(3)}
	}
	taxis := make([]fleet.Taxi, nTaxis)
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: i, Pos: pt(), Seats: 4}
	}
	return reqs, taxis
}

// discRows is the §IV-A prune as a full scan, the oracle Plane must
// reproduce bit for bit: taxi i's row holds, in request order, every
// request whose radius is not negative and whose pickup's straight-line
// distance does not exceed it (a NaN radius keeps every cell), each
// with the metric's distance.
func discRows(reqs []fleet.Request, taxis []fleet.Taxi, m geo.Metric, radii []float64) [][]costplane.Entry {
	rows := make([][]costplane.Entry, len(taxis))
	for i, taxi := range taxis {
		for j, rq := range reqs {
			if r := radii[j]; !(r < 0) && !(geo.Euclid(taxi.Pos, rq.Pickup) > r) {
				rows[i] = append(rows[i], costplane.Entry{Req: int32(j), Dist: m.Distance(taxi.Pos, rq.Pickup)})
			}
		}
	}
	return rows
}

// samePlaneRows fails unless a and b hold the same trips and rows, Req
// and Dist bits alike.
func samePlaneRows(t *testing.T, label string, a, b *costplane.Plane) {
	t.Helper()
	if !slices.Equal(a.Trips(), b.Trips()) || len(a.Taxis) != len(b.Taxis) {
		t.Fatalf("%s: planes differ in trips or taxis", label)
	}
	for i := range a.Taxis {
		if !slices.Equal(a.PickupRow(i), b.PickupRow(i)) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, a.PickupRow(i), b.PickupRow(i))
		}
	}
}

// TestPlanePrunesAtBothThresholds checks the §IV-A radius: a
// taxi→pickup cell is stored, with the metric's exact value, when the
// straight line is within min(MaxPickup, MaxNet + α·trip), and absent
// beyond it; rows are in request order, and FullRow and CostMatrix
// agree with PickupDist on every cell.
func TestPlanePrunesAtBothThresholds(t *testing.T) {
	reqs, taxis := planeWorld(30, 40, 6)
	m := geo.ManhattanMetric
	params := Params{Alpha: 0.5, Beta: 1, MaxPickup: 9, MaxNet: 1}
	pl := Plane(nil, reqs, taxis, m, params, 1)
	cost := pl.CostMatrix()
	var full []costplane.Entry
	stored := 0
	for i, taxi := range taxis {
		row := pl.PickupRow(i)
		if !slices.IsSortedFunc(row, func(a, b costplane.Entry) int { return int(a.Req - b.Req) }) {
			t.Fatalf("row %d is not in request order", i)
		}
		stored += len(row)
		full = pl.FullRow(i, full[:0])
		for j, rq := range reqs {
			radius := min(params.MaxPickup, params.MaxNet+params.Alpha*pl.Trip(j))
			got, straight := pl.PickupDist(i, j), geo.Euclid(taxi.Pos, rq.Pickup)
			switch {
			case straight <= radius:
				if want := m.Distance(taxi.Pos, rq.Pickup); got != want {
					t.Fatalf("PickupDist(%d,%d) = %v, want %v", i, j, got, want)
				}
			case straight > radius+1e-6:
				if !math.IsInf(got, 1) {
					t.Fatalf("PickupDist(%d,%d) = %v, want +Inf (beyond %v)", i, j, got, radius)
				}
			}
			if full[j].Req != int32(j) || full[j].Dist != got || cost[j][i] != got {
				t.Fatalf("cell (%d,%d): FullRow %+v, CostMatrix %v, PickupDist %v", i, j, full[j], cost[j][i], got)
			}
		}
	}
	if stored != pl.Entries() || stored == 0 || stored == pl.Cells() {
		t.Fatalf("rows hold %d cells, Entries() = %d, of %d", stored, pl.Entries(), pl.Cells())
	}
}

// TestPlaneRadiiEdges pins the radii the thresholds' edge values give:
// MaxPickup ≤ 0 prunes nothing on the passenger side, MaxNet = −Inf
// (a NaN radius) leaves MaxPickup's, and a net radius below zero leaves
// the column out.
func TestPlaneRadiiEdges(t *testing.T) {
	inf := math.Inf(1)
	trips := []float64{0, 1, 4}
	for _, tc := range []struct {
		params Params
		want   []float64
	}{
		{Params{Alpha: 1, MaxPickup: 0, MaxNet: inf}, []float64{inf, inf, inf}},
		{Params{Alpha: 1, MaxPickup: -3, MaxNet: inf}, []float64{inf, inf, inf}},
		{Params{Alpha: 1, MaxPickup: 5, MaxNet: math.Inf(-1)}, []float64{5, 5, 5}},
		{Params{Alpha: 1, MaxPickup: inf, MaxNet: -2}, []float64{-2, -1, 2}},
		{Params{Alpha: 0.5, MaxPickup: 3, MaxNet: 1}, []float64{1, 1.5, 3}},
	} {
		got := planeRadii(tc.params, trips, nil)
		for j, want := range tc.want {
			if r := got[j]; !(r == want || math.Abs(r-want) <= 1e-6) {
				t.Errorf("%+v: radius %d = %v, want %v", tc.params, j, r, want)
			}
		}
	}
}

// TestPlaneMatchesDiscRule pins Plane against the full disc scan under
// Euclid, Manhattan and a road grid, with one and four workers, on a
// uniform frame, every taxi at one pickup, taxis far from the pickups,
// one taxi, no taxis and no requests, across thresholds that make the
// radii MaxPickup, MaxNet + α·trip, +Inf, NaN and negative. A metric
// wrapping Euclid is called once per trip and once per stored cell.
func TestPlaneMatchesDiscRule(t *testing.T) {
	reqs, taxis := planeWorld(60, 50, 11)
	far := slices.Clone(taxis)
	for i := range far {
		far[i].Pos = far[i].Pos.Add(geo.Point{X: 100, Y: 80})
	}
	onePoint := slices.Clone(taxis[:20])
	for i := range onePoint {
		onePoint[i].Pos = reqs[3].Pickup
	}
	frames := []struct {
		name  string
		reqs  []fleet.Request
		taxis []fleet.Taxi
	}{
		{"uniform", reqs, taxis}, {"one point", reqs, onePoint}, {"far taxis", reqs, far},
		{"one taxi", reqs, taxis[:1]}, {"no taxis", reqs, nil}, {"no requests", nil, taxis},
	}
	inf := math.Inf(1)
	params := []Params{
		{Alpha: 1, MaxPickup: 10, MaxNet: 2},
		{Alpha: 0.5, MaxPickup: 0, MaxNet: -1},
		{Alpha: 1, MaxPickup: 3, MaxNet: math.Inf(-1)},
		{Alpha: 2, MaxPickup: inf, MaxNet: -20},
		Unbounded(),
	}
	for _, mt := range boundaryMetrics(t) {
		for _, f := range frames {
			for _, p := range params {
				want := discRows(f.reqs, f.taxis, mt.m, planeRadii(p, Plane(nil, f.reqs, nil, mt.m, p, 1).Trips(), nil))
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%s/%+v/workers=%d", mt.name, f.name, p, workers)
					pl := Plane(nil, f.reqs, f.taxis, mt.m, p, workers)
					for i, row := range want {
						if got := pl.PickupRow(i); !slices.Equal(got, row) {
							t.Fatalf("%s: row %d = %v, scan %v", label, i, got, row)
						}
					}
				}
			}
		}
	}
	calls := 0
	wrapped := geo.MetricFunc(func(a, b geo.Point) float64 { calls++; return geo.Euclid(a, b) })
	for _, p := range params {
		calls = 0
		pl := Plane(nil, reqs, taxis, wrapped, p, 1)
		if want := len(reqs) + pl.Entries(); calls != want {
			t.Errorf("%+v: wrapped metric called %d times, want %d (trips + stored cells)", p, calls, want)
		}
		samePlaneRows(t, fmt.Sprintf("wrapped %+v", p), pl, Plane(nil, reqs, taxis, geo.EuclidMetric, p, 1))
	}
}

// TestPlaneWorkerCountInvariance is the §IV-A plane's determinism
// guarantee: trips and rows are bit-identical across worker counts, on
// the straight line and on a batching road network.
func TestPlaneWorkerCountInvariance(t *testing.T) {
	reqs, taxis := planeWorld(40, 60, 3)
	for _, mt := range boundaryMetrics(t) {
		for _, p := range []Params{{Alpha: 1, MaxPickup: 10, MaxNet: 2}, {Alpha: 0.5, MaxPickup: 0, MaxNet: -3}} {
			ref := Plane(nil, reqs, taxis, mt.m, p, 1)
			for _, workers := range []int{0, 2, 4, 16} {
				samePlaneRows(t, fmt.Sprintf("%s %+v workers=%d", mt.name, p, workers), Plane(nil, reqs, taxis, mt.m, p, workers), ref)
			}
		}
	}
}
