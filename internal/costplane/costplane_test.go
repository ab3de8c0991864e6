package costplane

import (
	"fmt"
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

// withTaxis returns a copy of p, in storage of its own, with the taxi
// rows FillTaxis computes over radii; p is left as it was.
func withTaxis(p *Plane, taxis []fleet.Taxi, radii []float64, workers int) *Plane {
	q := *p
	q.buf = storage{}
	q.FillTaxis(taxis, workers, func(_, dst []float64) []float64 { return append(dst, radii...) })
	return &q
}

// TestFillTaxis checks the taxi pass over caller radii: a column with a
// negative radius holds no cell, a NaN or +Inf radius keeps every cell,
// and a finite one keeps exactly the straight-line disc with the
// metric's value; filling in place leaves the request plane's trips and
// pair rows where they were; refilling the same plane with other taxis
// and back gives the same rows; every worker count agrees; and Build is
// the request pass followed by this pass over its own radii.
func TestFillTaxis(t *testing.T) {
	reqs, taxis := world(t, 30, 25, 8)
	cols := make([]float64, len(reqs))
	for j := range cols {
		cols[j] = []float64{-1, -0.5, 0, 3, 7.5, math.Inf(1), math.NaN()}[j%7]
	}
	colRadii := func(_, dst []float64) []float64 { return append(dst, cols...) }
	for name, m := range map[string]geo.Metric{"manhattan": geo.ManhattanMetric, "roadnet": roadMetric(t)} {
		base := Build(reqs, nil, m, Config{Workers: 1, Pairs: true, PairRows: 9})
		trip0, pair := &base.Trips()[0], base.PairDist(3, 5)
		pl := withTaxis(base, taxis, cols, 1)
		base.FillTaxis(taxis, 1, colRadii)
		if &base.Trips()[0] != trip0 || base.PairRows() != 9 || base.PairDist(3, 5) != pair {
			t.Fatalf("%s: FillTaxis moved the request plane's trips or pair rows", name)
		}
		base.FillTaxis(taxis[:7], 2, func(_, dst []float64) []float64 { return appendRadii(dst, Config{PruneRadius: 2}, len(reqs)) })
		if len(base.Taxis) != 7 {
			t.Fatalf("%s: refilled plane has %d taxis, want 7", name, len(base.Taxis))
		}
		base.FillTaxis(taxis, 1, colRadii)
		for i := range taxis {
			if !slices.Equal(base.PickupRow(i), pl.PickupRow(i)) {
				t.Fatalf("%s: row %d differs after refilling in place", name, i)
			}
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
			other := withTaxis(base, taxis, cols, workers)
			for i := range taxis {
				if !slices.Equal(other.PickupRow(i), pl.PickupRow(i)) {
					t.Fatalf("%s workers=%d: row %d differs", name, workers, i)
				}
			}
		}
		for _, cfg := range []Config{{}, {PruneRadius: 6}} {
			cfg.Workers = 2
			want := Build(reqs, taxis, m, cfg)
			got := withTaxis(base, taxis, appendRadii(nil, cfg, len(reqs)), 2)
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
// without pruning, on both metric kinds. The §IV-A plane's per-request
// radii are pinned the same way in package pref.
func TestWorkerCountInvariance(t *testing.T) {
	reqs, taxis := world(t, 40, 60, 3)
	configs := []Config{
		{},
		{PruneRadius: 8},
		{Pairs: true, PairRadius: 8},
		{PruneRadius: 8, Pairs: true, PairRadius: 8},
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
	for _, cfg := range []Config{{}, {PruneRadius: 5, Pairs: true, PairRadius: 5}} {
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

// scanRows is the taxi pass as a full disc scan, kept as the oracle the
// disc grid must reproduce: every taxi tests the disc of every scanned
// column under the same squared and straight-line rules, and a kept
// cell holds the metric's distance (a batching metric's DistancesFrom
// is bit-identical to Distance per pair).
func scanRows(reqs []fleet.Request, taxis []fleet.Taxi, m geo.Metric, radii []float64) [][]Entry {
	discs, cols, _ := scanDiscs(nil, nil, reqs, radii)
	rows := make([][]Entry, len(taxis))
	for i, taxi := range taxis {
		src := taxi.Pos
		for x, d := range discs {
			dx, dy := d.pickup.X-src.X, d.pickup.Y-src.Y
			if dx*dx+dy*dy > d.sq || (!math.IsInf(d.r, 1) && geo.Euclid(src, d.pickup) > d.r) {
				continue
			}
			rows[i] = append(rows[i], Entry{Req: cols[x], Dist: m.Distance(src, d.pickup)})
		}
	}
	return rows
}

// checkRows fails unless pl's rows equal want bit for bit: the same
// requests in the same order, and the same Dist bits.
func checkRows(t *testing.T, name string, pl *Plane, want [][]Entry) {
	t.Helper()
	for i, row := range want {
		got := pl.PickupRow(i)
		same := len(got) == len(row)
		for k := 0; same && k < len(row); k++ {
			same = got[k].Req == row[k].Req && math.Float64bits(got[k].Dist) == math.Float64bits(row[k].Dist)
		}
		if !same {
			t.Fatalf("%s: row %d = %v, full scan %v", name, i, got, row)
		}
	}
}

// gridFrame is one taxi-pass input: a frame and the FillTaxis radii.
type gridFrame struct {
	name  string
	reqs  []fleet.Request
	taxis []fleet.Taxi
	radii []float64
}

// boundaryFrame puts 128 taxis on a 256×2 km strip — even x on its
// long edges, plus three one ulp below x = 4 — so the grid's cells are
// exactly 2 km and every taxi sits on or just below a cell boundary,
// while each disc covers few of the 258 cells and the grid is built. It
// places pickups on a taxi's row, far to its left or right, with
// exactly the straight-line distance to that taxi as their radius,
// chosen where the disc box's edge px ± r rounds to the far side of the
// taxi's cell boundary, so an unwidened span misses the taxi. It
// returns the frame and how many such pickups lie on each side.
func boundaryFrame() (f gridFrame, left, right int) {
	f.name = "cell boundaries"
	below := math.Nextafter(4, 0)
	f.taxis = []fleet.Taxi{{Pos: geo.Point{X: 256, Y: 2}}}
	for _, y := range []float64{0.5, 1, 1.5} {
		f.taxis = append(f.taxis, fleet.Taxi{Pos: geo.Point{X: below, Y: y}})
	}
	for x := 0.0; len(f.taxis) < 128; x += 2 {
		f.taxis = append(f.taxis, fleet.Taxi{Pos: geo.Point{X: x, Y: 2 * float64(len(f.taxis)%2)}})
	}
	for i := range f.taxis {
		f.taxis[i].ID = i
	}
	add := func(pickup geo.Point, r float64) {
		f.reqs = append(f.reqs, fleet.Request{ID: len(f.reqs), Pickup: pickup, Dropoff: pickup})
		f.radii = append(f.radii, r)
	}
	on := func(tx, ty, px float64) {
		add(geo.Point{X: px, Y: ty}, geo.Euclid(geo.Point{X: tx, Y: ty}, geo.Point{X: px, Y: ty}))
	}
	for k := 1; k < 4000 && (left < 12 || right < 12); k++ {
		// Left of the taxis at x = 4 (cell 2), px + r rounds below 4;
		// right of the taxis one ulp below 4 (cell 1), px − r rounds to 4.
		if px := -9 - float64(k)*0.00731; left < 12 && px+(4-px) < 4 {
			on(4, 2*float64(left%2), px)
			left++
		}
		if px := 9 + float64(k)*0.00731; right < 12 && px-(px-below) >= 4 {
			on(below, 0.5+0.5*float64(right%3), px)
			right++
		}
	}
	// Radii of −1, 0, NaN and +Inf, a zero radius on a taxi, and exact
	// distances off the rows.
	for k, r := range []float64{-1, 0, math.NaN(), math.Inf(1), -0.5} {
		add(geo.Point{X: 1.3 + float64(k), Y: 1.7}, r)
	}
	add(f.taxis[6].Pos, 0)
	for _, taxi := range f.taxis[:12] {
		p := geo.Point{X: taxi.Pos.X + 1.37, Y: 1.23}
		add(p, geo.Euclid(taxi.Pos, p))
	}
	return f, left, right
}

// gridFrames returns the frames the disc grid is checked on: hotspot
// clusters shaped like a New York frame, every taxi at one point, taxis
// far outside the pickups' box, one taxi, no taxis, taxis at non-finite
// positions and the cell-boundary frame. Each frame's radii mix typical
// pickup radii with −1, 0, NaN, +Inf and exact taxi distances.
func gridFrames(t *testing.T) []gridFrame {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	hotspots := []geo.Point{{X: 12, Y: 20}, {X: 14, Y: 24}, {X: 20, Y: 9}, {X: 6, Y: 31}}
	near := func() geo.Point {
		if rng.Intn(5) == 0 {
			return geo.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		}
		h := hotspots[rng.Intn(len(hotspots))]
		return geo.Point{X: h.X + 1.5*rng.NormFloat64(), Y: h.Y + 1.5*rng.NormFloat64()}
	}
	frame := func(name string, nReqs int, taxi func(i int) geo.Point, nTaxis int) gridFrame {
		f := gridFrame{name: name}
		for j := 0; j < nReqs; j++ {
			p := near()
			f.reqs = append(f.reqs, fleet.Request{ID: j, Pickup: p, Dropoff: p.Add(geo.Point{X: rng.ExpFloat64(), Y: rng.ExpFloat64()})})
		}
		for i := 0; i < nTaxis; i++ {
			f.taxis = append(f.taxis, fleet.Taxi{ID: i, Pos: taxi(i)})
		}
		for j := range f.reqs {
			r := 0.5 + 3.5*rng.Float64()
			switch j % 9 {
			case 1:
				r = -1
			case 2:
				r = 0
			case 3:
				if j%4 == 0 {
					r = math.NaN()
				} else {
					r = math.Inf(1)
				}
			case 4:
				if len(f.taxis) > 0 {
					r = geo.Euclid(f.taxis[rng.Intn(len(f.taxis))].Pos, f.reqs[j].Pickup)
				}
			}
			f.radii = append(f.radii, r)
		}
		return f
	}
	nonFinite := frame("non-finite taxis", 60, func(int) geo.Point { return near() }, 40)
	nonFinite.taxis[3].Pos.X = math.NaN()
	nonFinite.taxis[7].Pos.Y = math.Inf(1)
	nonFinite.taxis[11].Pos = geo.Point{X: math.Inf(-1), Y: math.Inf(1)}
	boundary, left, right := boundaryFrame()
	discs, _, _ := scanDiscs(nil, nil, boundary.reqs, boundary.radii)
	if g := new(discGrid).build(boundary.taxis, discs); left == 0 || right == 0 || g == nil || g.inv != 0.5 {
		t.Fatalf("boundary frame: %d left and %d right pickups whose unwidened box misses a taxi, grid %+v; want both, and 2-km cells", left, right, g)
	}
	return []gridFrame{
		frame("hotspots", 300, func(int) geo.Point { return near() }, 200),
		frame("one point", 80, func(int) geo.Point { return geo.Point{X: 13, Y: 21} }, 30),
		frame("far taxis", 80, func(int) geo.Point { return geo.Point{X: 100 + 20*rng.Float64(), Y: 100 + 20*rng.Float64()} }, 30),
		frame("one taxi", 80, func(int) geo.Point { return geo.Point{X: 12.5, Y: 20.5} }, 1),
		frame("no taxis", 80, nil, 0),
		nonFinite,
		boundary,
	}
}

// TestPickupRowsMatchDiscScan pins the disc grid against the full disc
// scan it replaced: on every gridFrames frame, under Euclid, Manhattan
// and a road grid, with one and four workers, every row of FillTaxis
// over the frame's radii and of Build under pruned and unpruned
// configurations equals the scan's, Req and Dist bits alike.
func TestPickupRowsMatchDiscScan(t *testing.T) {
	frames := gridFrames(t)
	metrics := []struct {
		name string
		m    geo.Metric
	}{{"euclid", geo.EuclidMetric}, {"manhattan", geo.ManhattanMetric}, {"roadnet", roadMetric(t)}}
	configs := []Config{{PruneRadius: 10}, {PruneRadius: 3}, {}}
	for _, mc := range metrics {
		for _, f := range frames {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", mc.name, f.name, workers)
				base := Build(f.reqs, nil, mc.m, Config{Workers: workers})
				checkRows(t, name+"/FillTaxis", withTaxis(base, f.taxis, f.radii, workers), scanRows(f.reqs, f.taxis, mc.m, f.radii))
				for _, cfg := range configs {
					cfg.Workers = workers
					pl := Build(f.reqs, f.taxis, mc.m, cfg)
					checkRows(t, fmt.Sprintf("%s/Build %+v", name, cfg), pl, scanRows(f.reqs, f.taxis, mc.m, appendRadii(nil, cfg, len(f.reqs))))
				}
			}
		}
	}
}

// TestWrappedEuclidKeepsMetricCalls pins the scope of the straight-line
// reuse: under geo.StraightLine a stored cell and a kept pair keep the
// distance their prune test computed, while a metric wrapping Euclid (a
// call counter) is still called once per trip, once per stored cell and
// once per kept pair, and both planes hold the same rows and pair rows
// bit for bit.
func TestWrappedEuclidKeepsMetricCalls(t *testing.T) {
	calls := 0
	wrapped := geo.MetricFunc(func(a, b geo.Point) float64 { calls++; return geo.Euclid(a, b) })
	prunedKept := 0 // pairs a pair prune kept, over every frame
	for _, f := range gridFrames(t) {
		for _, cfg := range []Config{
			{Workers: 1, PruneRadius: 3},
			{Workers: 1, PruneRadius: 0.5},
			{Workers: 1, PruneRadius: 3, Pairs: true, PairRadius: 2},
			{Workers: 1, PruneRadius: 3, Pairs: true, PairRows: 12, PairRadius: 1.5},
			{Workers: 1, PruneRadius: 3, Pairs: true},
		} {
			calls = 0
			pl := Build(f.reqs, f.taxis, wrapped, cfg)
			plain := Build(f.reqs, f.taxis, geo.EuclidMetric, cfg)
			kept := 0
			for j := 0; j < pl.PairRows(); j++ {
				for k := 0; k < pl.PairRows(); k++ {
					if got, want := pl.PairDist(j, k), plain.PairDist(j, k); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s %+v: pair (%d, %d) = %v, want %v", f.name, cfg, j, k, got, want)
					}
					if j != k && !math.IsInf(pl.PairDist(j, k), 1) {
						kept++
					}
				}
			}
			if want := len(f.reqs) + pl.Entries() + kept; calls != want {
				t.Errorf("%s %+v: wrapped metric called %d times, want %d (trips + stored cells + kept pairs)", f.name, cfg, calls, want)
			}
			if cfg.PairRadius > 0 {
				prunedKept += kept
			}
			want := make([][]Entry, len(f.taxis))
			for i := range want {
				want[i] = plain.PickupRow(i)
			}
			checkRows(t, f.name, pl, want)
		}
	}
	if prunedKept == 0 {
		t.Error("no pair prune kept a pair; the pin proves nothing")
	}
}

// FuzzPlaneRowsMatchScan checks the disc grid against the full disc
// scan on random frames: up to 48 taxis and 48 requests spread over a
// box of the given size (any float, so positions may be huge or
// non-finite), laid out uniformly, with every taxi at one point, with
// the taxis far from the pickups, or on a coarse lattice, and each
// column's radius drawn from the given radius, −1, 0, NaN, +Inf and the
// exact distance to a taxi.
func FuzzPlaneRowsMatchScan(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(30), 20.0, 3.6, uint8(0))
	f.Add(int64(2), uint8(12), uint8(20), 8.0, 0.0, uint8(1))
	f.Add(int64(3), uint8(20), uint8(20), 20.0, 5.0, uint8(2))
	f.Add(int64(4), uint8(1), uint8(9), 10.0, 2.0, uint8(0))
	f.Add(int64(5), uint8(0), uint8(9), 10.0, 2.0, uint8(0))
	f.Add(int64(6), uint8(16), uint8(40), 8.0, math.NaN(), uint8(3))
	f.Add(int64(7), uint8(16), uint8(40), 8.0, math.Inf(1), uint8(3))
	f.Add(int64(8), uint8(16), uint8(40), 8.0, -1.0, uint8(3))
	f.Add(int64(9), uint8(30), uint8(30), math.Inf(1), 1.0, uint8(0))
	f.Add(int64(10), uint8(30), uint8(30), 1e300, 1e300, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nTaxis, nReqs uint8, size, radius float64, layout uint8) {
		rng := rand.New(rand.NewSource(seed))
		pt := func() geo.Point {
			if layout%4 == 3 {
				return geo.Point{X: size / 4 * float64(rng.Intn(5)), Y: size / 4 * float64(rng.Intn(5))}
			}
			return geo.Point{X: size * rng.Float64(), Y: size * rng.Float64()}
		}
		reqs := make([]fleet.Request, nReqs%49)
		for j := range reqs {
			reqs[j] = fleet.Request{ID: j, Pickup: pt()}
		}
		taxis := make([]fleet.Taxi, nTaxis%49)
		for i := range taxis {
			taxis[i] = fleet.Taxi{ID: i, Pos: pt()}
			switch layout % 4 {
			case 1:
				taxis[i].Pos = geo.Point{X: size / 3, Y: size / 2}
			case 2:
				taxis[i].Pos = taxis[i].Pos.Add(geo.Point{X: 10 * size, Y: 3 * size})
			}
		}
		radii := make([]float64, len(reqs))
		for j := range radii {
			switch k := rng.Intn(8); {
			case k < 3:
				radii[j] = radius
			case k == 3 && len(taxis) > 0:
				radii[j] = geo.Euclid(taxis[rng.Intn(len(taxis))].Pos, reqs[j].Pickup)
			default:
				radii[j] = []float64{-1, 0, math.NaN(), math.Inf(1), radius}[k-3]
			}
		}
		for _, m := range []geo.Metric{geo.EuclidMetric, geo.ManhattanMetric} {
			want := scanRows(reqs, taxis, m, radii)
			base := Build(reqs, nil, m, Config{Workers: 1})
			for _, workers := range []int{1, 3} {
				checkRows(t, fmt.Sprintf("workers=%d", workers), withTaxis(base, taxis, radii, workers), want)
			}
		}
	})
}
