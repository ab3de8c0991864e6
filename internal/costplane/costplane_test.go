package costplane

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/roadnet"
)

func world(t *testing.T, nReqs, nTaxis int, seed int64) ([]fleet.Request, []fleet.Taxi) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pt := func() geo.Point {
		return geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
	}
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

func roadMetric(t *testing.T) *roadnet.Metric {
	t.Helper()
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 8, Cols: 8, Spacing: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	return roadnet.NewMetric(g, 16)
}

// TestBuildMatchesMetric checks every unpruned plane cell is exactly the
// metric's value, for both a plain and a batch-capable metric.
func TestBuildMatchesMetric(t *testing.T) {
	reqs, taxis := world(t, 23, 31, 1)
	metrics := map[string]geo.Metric{
		"euclid":  geo.EuclidMetric,
		"roadnet": roadMetric(t),
	}
	for name, m := range metrics {
		pl := Build(reqs, taxis, m, Config{Workers: 1, Pairs: true})
		for i, taxi := range taxis {
			for j, rq := range reqs {
				if got, want := pl.PickupDist(i, j), m.Distance(taxi.Pos, rq.Pickup); got != want {
					t.Fatalf("%s: PickupDist(%d,%d) = %v, want %v", name, i, j, got, want)
				}
			}
		}
		for j, rq := range reqs {
			if got, want := pl.Trip(j), rq.TripDistance(m); got != want {
				t.Fatalf("%s: Trip(%d) = %v, want %v", name, j, got, want)
			}
			for k, other := range reqs {
				want := m.Distance(rq.Pickup, other.Pickup)
				if k == j {
					want = 0
				}
				if got := pl.PairDist(j, k); got != want {
					t.Fatalf("%s: PairDist(%d,%d) = %v, want %v", name, j, k, got, want)
				}
			}
		}
	}
}

// TestPruning checks a cell is +Inf exactly when the straight-line
// distance exceeds the radius, and the metric's exact value otherwise.
func TestPruning(t *testing.T) {
	reqs, taxis := world(t, 30, 40, 2)
	const radius = 6.0
	m := geo.ManhattanMetric // strictly above the Euclid lower bound
	pl := Build(reqs, taxis, m, Config{Workers: 1, PruneRadius: radius, Pairs: true, PairRadius: radius})
	prunedSeen := false
	for i, taxi := range taxis {
		for j, rq := range reqs {
			got := pl.PickupDist(i, j)
			if geo.Euclid(taxi.Pos, rq.Pickup) > radius {
				prunedSeen = true
				if !math.IsInf(got, 1) {
					t.Fatalf("PickupDist(%d,%d) = %v, want +Inf (pruned)", i, j, got)
				}
			} else if want := m.Distance(taxi.Pos, rq.Pickup); got != want {
				t.Fatalf("PickupDist(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if !prunedSeen {
		t.Fatal("test world pruned nothing; shrink the radius")
	}
	for j, rq := range reqs {
		if math.IsInf(pl.Trip(j), 1) {
			t.Fatalf("Trip(%d) pruned; trips must always be computed", j)
		}
		for k, other := range reqs {
			got := pl.PairDist(j, k)
			switch {
			case k == j:
				if got != 0 {
					t.Fatalf("PairDist(%d,%d) = %v, want 0", j, j, got)
				}
			case geo.Euclid(rq.Pickup, other.Pickup) > radius:
				if !math.IsInf(got, 1) {
					t.Fatalf("PairDist(%d,%d) = %v, want +Inf (pruned)", j, k, got)
				}
			default:
				if want := m.Distance(rq.Pickup, other.Pickup); got != want {
					t.Fatalf("PairDist(%d,%d) = %v, want %v", j, k, got, want)
				}
			}
		}
	}
}

// TestNetPruning checks the threshold radius: a taxi→pickup cell is
// stored, with the metric's exact value, when the straight line is
// within min(PruneRadius, MaxNet + α·trip), and absent beyond it; rows
// are in request order and FullRow and CostMatrix agree with PickupDist
// on every cell.
func TestNetPruning(t *testing.T) {
	reqs, taxis := world(t, 30, 40, 6)
	m := geo.ManhattanMetric
	cfg := Config{Workers: 1, PruneRadius: 9, Net: true, MaxNet: 1, Alpha: 0.5}
	pl := Build(reqs, taxis, m, cfg)
	cost := pl.CostMatrix()
	var full []Entry
	stored := 0
	for i, taxi := range taxis {
		row := pl.PickupRow(i)
		if !slices.IsSortedFunc(row, func(a, b Entry) int { return int(a.Req - b.Req) }) {
			t.Fatalf("row %d is not in request order", i)
		}
		stored += len(row)
		full = pl.FullRow(i, full[:0])
		for j, rq := range reqs {
			radius := min(cfg.PruneRadius, cfg.MaxNet+cfg.Alpha*pl.Trip(j))
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

// TestWithTaxis checks the taxi pass over caller radii: a column with a
// negative radius holds no cell, a NaN or +Inf radius keeps every cell,
// and a finite one keeps exactly the straight-line disc with the
// metric's value; the request plane is left as it was and shares its
// trips and pair rows; every worker count agrees; and Build is the
// request pass followed by this pass over its own radii.
func TestWithTaxis(t *testing.T) {
	reqs, taxis := world(t, 30, 25, 8)
	cols := make([]float64, len(reqs))
	for j := range cols {
		cols[j] = []float64{-1, -0.5, 0, 3, 7.5, math.Inf(1), math.NaN()}[j%7]
	}
	for name, m := range map[string]geo.Metric{"manhattan": geo.ManhattanMetric, "roadnet": roadMetric(t)} {
		base := Build(reqs, nil, m, Config{Workers: 1, Pairs: true, PairRows: 9})
		pl := base.WithTaxis(taxis, cols, 1)
		if len(base.Taxis) != 0 || base.Entries() != 0 {
			t.Fatalf("%s: WithTaxis modified the request plane", name)
		}
		if &pl.Trips()[0] != &base.Trips()[0] || pl.PairRows() != 9 || pl.PairDist(3, 5) != base.PairDist(3, 5) {
			t.Fatalf("%s: taxi plane does not share the request plane's trips and pair rows", name)
		}
		for i, taxi := range taxis {
			for j, rq := range reqs {
				got, straight, r := pl.PickupDist(i, j), geo.Euclid(taxi.Pos, rq.Pickup), cols[j]
				switch {
				case r < 0:
					if !math.IsInf(got, 1) {
						t.Fatalf("%s: PickupDist(%d,%d) = %v in a left-out column", name, i, j, got)
					}
				case math.IsNaN(r) || straight <= r:
					if want := m.Distance(taxi.Pos, rq.Pickup); got != want {
						t.Fatalf("%s: PickupDist(%d,%d) = %v, want %v (radius %v)", name, i, j, got, want, r)
					}
				case straight > r+1e-6:
					if !math.IsInf(got, 1) {
						t.Fatalf("%s: PickupDist(%d,%d) = %v, want +Inf (beyond %v)", name, i, j, got, r)
					}
				}
			}
		}
		for _, workers := range []int{0, 3, 16} {
			other := base.WithTaxis(taxis, cols, workers)
			for i := range taxis {
				if !slices.Equal(other.PickupRow(i), pl.PickupRow(i)) {
					t.Fatalf("%s workers=%d: row %d differs", name, workers, i)
				}
			}
		}
		for _, cfg := range []Config{{}, {PruneRadius: 6}, {PruneRadius: 10, Net: true, MaxNet: -1, Alpha: 1}} {
			cfg.Workers = 2
			want := Build(reqs, taxis, m, cfg)
			got := base.WithTaxis(taxis, radii(cfg, base.Trips()), 2)
			for i := range taxis {
				if !slices.Equal(got.PickupRow(i), want.PickupRow(i)) {
					t.Fatalf("%s cfg=%+v: row %d differs from Build's", name, cfg, i)
				}
			}
		}
	}
}

// TestRadius pins the outward rounding and the constants that never
// prune.
func TestRadius(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if r := Radius(2, c); !math.IsInf(r, 1) {
			t.Errorf("Radius(2, %v) = %v, want +Inf", c, r)
		}
	}
	if r := Radius(math.Inf(1), 3); !math.IsInf(r, 1) {
		t.Errorf("Radius(+Inf, 3) = %v, want +Inf", r)
	}
	for _, tc := range [][2]float64{{10, 0}, {10, 9.5}, {2, -4.25}, {0.1, 0.3}, {-1, 2}} {
		limit, c := tc[0], tc[1]
		r := Radius(limit, c)
		if !(r > limit-c) || r > limit-c+1e-6 {
			t.Errorf("Radius(%v, %v) = %v, want just above %v", limit, c, r, limit-c)
		}
	}
}

// TestWorkerCountInvariance is the package-level determinism guarantee:
// every row and cell is bit-identical across worker counts, with and
// without pruning — at a fixed radius and at the non-sharing thresholds
// — on both metric kinds.
func TestWorkerCountInvariance(t *testing.T) {
	reqs, taxis := world(t, 40, 60, 3)
	configs := []Config{
		{},
		{PruneRadius: 8},
		{Pairs: true, PairRadius: 8},
		{PruneRadius: 8, Pairs: true, PairRadius: 8},
		{PruneRadius: 10, Net: true, MaxNet: 2, Alpha: 1},
		{Net: true, MaxNet: -3, Alpha: 0.5, Pairs: true, PairRadius: 8},
		{PruneRadius: 8, Pairs: true, PairRows: 17, PairRadius: 8},
	}
	metrics := map[string]geo.Metric{
		"euclid":  geo.EuclidMetric,
		"roadnet": roadMetric(t),
	}
	for name, m := range metrics {
		for _, cfg := range configs {
			base := cfg
			base.Workers = 1
			ref := Build(reqs, taxis, m, base)
			for _, workers := range []int{2, 4, 16} {
				c := cfg
				c.Workers = workers
				pl := Build(reqs, taxis, m, c)
				if pl.Entries() != ref.Entries() {
					t.Fatalf("%s workers=%d cfg=%+v: %d entries, want %d", name, workers, cfg, pl.Entries(), ref.Entries())
				}
				for i := range taxis {
					if !slices.Equal(pl.PickupRow(i), ref.PickupRow(i)) {
						t.Fatalf("%s workers=%d cfg=%+v: row %d differs", name, workers, cfg, i)
					}
					for j := range reqs {
						if pl.PickupDist(i, j) != ref.PickupDist(i, j) {
							t.Fatalf("%s workers=%d cfg=%+v: PickupDist(%d,%d) = %v, want %v",
								name, workers, cfg, i, j, pl.PickupDist(i, j), ref.PickupDist(i, j))
						}
					}
				}
				if pl.PairRows() != ref.PairRows() {
					t.Fatalf("%s workers=%d cfg=%+v: %d pair rows, want %d", name, workers, cfg, pl.PairRows(), ref.PairRows())
				}
				for j := range reqs {
					if pl.Trip(j) != ref.Trip(j) {
						t.Fatalf("%s workers=%d cfg=%+v: Trip(%d) differs", name, workers, cfg, j)
					}
				}
				for j := range ref.PairRows() {
					for k := range ref.PairRows() {
						if pl.PairDist(j, k) != ref.PairDist(j, k) {
							t.Fatalf("%s workers=%d cfg=%+v: PairDist(%d,%d) differs", name, workers, cfg, j, k)
						}
					}
				}
			}
		}
	}
}

// TestPairRowsPrefix checks a plane whose pair rows cover only the
// first n requests holds exactly the full plane's pair cells over that
// prefix, and the same trips and taxi rows, for every n from 0 (which,
// like a count past the queue, means every request) to past the queue,
// on both metric kinds.
func TestPairRowsPrefix(t *testing.T) {
	reqs, taxis := world(t, 25, 12, 7)
	metrics := map[string]geo.Metric{
		"euclid":  geo.EuclidMetric,
		"roadnet": roadMetric(t),
	}
	for name, m := range metrics {
		full := Build(reqs, taxis, m, Config{Workers: 1, PruneRadius: 8, Pairs: true, PairRadius: 6})
		for _, n := range []int{0, 1, 2, 13, 24, 25, 40} {
			pl := Build(reqs, taxis, m, Config{Workers: 3, PruneRadius: 8, Pairs: true, PairRows: n, PairRadius: 6})
			rows := n
			if n == 0 || n > len(reqs) {
				rows = len(reqs)
			}
			if pl.PairRows() != rows {
				t.Fatalf("%s n=%d: PairRows() = %d, want %d", name, n, pl.PairRows(), rows)
			}
			for j := range rows {
				for k := range rows {
					if got, want := pl.PairDist(j, k), full.PairDist(j, k); got != want {
						t.Fatalf("%s n=%d: PairDist(%d,%d) = %v, full plane %v", name, n, j, k, got, want)
					}
				}
			}
			for j := range reqs {
				if pl.Trip(j) != full.Trip(j) {
					t.Fatalf("%s n=%d: Trip(%d) = %v, full plane %v", name, n, j, pl.Trip(j), full.Trip(j))
				}
			}
			for i := range taxis {
				if !slices.Equal(pl.PickupRow(i), full.PickupRow(i)) {
					t.Fatalf("%s n=%d: taxi row %d differs from the full plane", name, n, i)
				}
			}
		}
	}
	if pl := Build(reqs, taxis, geo.EuclidMetric, Config{PairRows: 5}); pl.PairRows() != 0 {
		t.Fatalf("PairRows without Pairs built %d pair rows", pl.PairRows())
	}
}

// TestCostMatrixLayout checks the request-major copy against the
// taxi-major source, and that mutating the copy leaves the plane intact.
func TestCostMatrixLayout(t *testing.T) {
	reqs, taxis := world(t, 7, 11, 4)
	pl := Build(reqs, taxis, geo.EuclidMetric, Config{Workers: 2})
	cost := pl.CostMatrix()
	if len(cost) != len(reqs) {
		t.Fatalf("CostMatrix has %d rows, want %d", len(cost), len(reqs))
	}
	for j := range reqs {
		if len(cost[j]) != len(taxis) {
			t.Fatalf("CostMatrix row %d has %d cols, want %d", j, len(cost[j]), len(taxis))
		}
		for i := range taxis {
			if cost[j][i] != pl.PickupDist(i, j) {
				t.Fatalf("CostMatrix[%d][%d] = %v, want %v", j, i, cost[j][i], pl.PickupDist(i, j))
			}
		}
	}
	cost[0][0] = -1
	if pl.PickupDist(0, 0) == -1 {
		t.Fatal("CostMatrix aliases the plane's storage")
	}
}

// TestEmptyAndDegenerate covers zero-request and zero-taxi frames.
func TestEmptyAndDegenerate(t *testing.T) {
	reqs, taxis := world(t, 3, 2, 5)
	for _, cfg := range []Config{{}, {PruneRadius: 5, Pairs: true, PairRadius: 5}, {Net: true, MaxNet: 2, Alpha: 1}} {
		if pl := Build(nil, taxis, geo.EuclidMetric, cfg); pl.Cells() != 0 {
			t.Fatal("empty request frame has cells")
		}
		if pl := Build(reqs, nil, geo.EuclidMetric, cfg); pl.Cells() != 0 {
			t.Fatal("empty taxi frame has cells")
		} else if pl.Trip(0) != reqs[0].TripDistance(geo.EuclidMetric) {
			t.Fatal("trips missing on taxi-less frame")
		}
	}
}

// TestConfigKey pins that Workers is excluded from the memo key and the
// prune thresholds and pair rows are included.
func TestConfigKey(t *testing.T) {
	a := Config{Workers: 1, PruneRadius: 3, Pairs: true, PairRadius: 7}
	b := Config{Workers: 16, PruneRadius: 3, Pairs: true, PairRadius: 7}
	if a.Key() != b.Key() {
		t.Fatal("worker count leaked into the plane key")
	}
	c := Config{Workers: 1, PruneRadius: 4, Pairs: true, PairRadius: 7}
	if a.Key() == c.Key() {
		t.Fatal("prune radius missing from the plane key")
	}
	rows := a
	rows.PairRows = 100
	if a.Key() == rows.Key() {
		t.Fatal("pair rows missing from the plane key")
	}
	net := a
	net.Net, net.MaxNet, net.Alpha = true, 2, 1
	for _, other := range []Config{a, {Workers: 1, PruneRadius: 3, Pairs: true, PairRadius: 7, Net: true, MaxNet: 2, Alpha: 0.5}} {
		if net.Key() == other.Key() {
			t.Fatalf("net thresholds missing from the plane key: %+v and %+v share a key", net, other)
		}
	}
}
