// Package costplane builds the per-frame distance oracle every
// dispatcher queries: the taxi→pickup distances, the solo trip
// distances, and (for the sharing pipeline) the pickup→pickup matrix
// over the packing batch, computed once per frame and then served to
// preference construction, the baselines' cost matrix, and share-group
// formation.
//
// Three things make the plane cheaper than the query-as-you-go pattern it
// replaces. First, threshold pruning: the straight line lower-bounds
// every metric in this repository, so a taxi whose straight-line
// distance to a pickup exceeds the largest pickup a market could accept
// sits behind a dummy partner in every market built from the plane.
// Such cells are never computed and never stored; each taxi's row keeps
// only its candidate requests. The package knows geometry, not the
// interest models: Build prunes every column at one radius
// (Config.PruneRadius), and a market whose radii depend on the trips —
// the §IV-A market (pref.Plane) and the §V-A unit market
// (share.Units.AppendRadii) — builds the taxi-less plane first
// (Rebuild with no taxis) and then fills the taxi rows over per-request
// radii it computes from the trips (Plane.FillTaxis), rounded outward
// by Radius; a negative radius leaves a request's column out.
// The exact threshold tests stay in the packages that build the
// markets, so pruning can never drop a pair a test accepts.
// Second, a disc grid: the taxi pass buckets every pickup's disc by the
// cells of a uniform grid over the taxis that its bounding box overlaps,
// so each taxi tests only the discs listed under its own cell instead of
// every column (discGrid), unless the discs are so wide that the full
// scan is cheaper. Third, batched parallel construction: each
// row is one single-source job (served by geo.BatchMetric when the
// metric provides one, so a road-network row costs one Dijkstra
// traversal over the row's candidates), and rows are computed by a
// bounded worker pool sized by the distance tests the pass makes.
//
// A plane also keeps the memory it was built in. Rebuild builds into a
// spent plane, the last frame's, reusing its trips, pair rows, radii,
// row arenas, discs and disc grid, and FillTaxis fills a plane's taxi
// rows into its own storage, so a steady stream of frames stops
// allocating once the storage has grown to the largest frame: both
// Algorithm 1's §IV-A plane and Algorithm 3's request plane with its
// unit taxi rows are built this way into the last frame's (sim.Storage).
//
// Construction is bit-deterministic: every row's contents depend only
// on the inputs, never on worker count or scheduling, because each row
// is written by exactly one job and the underlying metrics return
// cache-state-independent values.
package costplane

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// Config controls plane construction.
type Config struct {
	// Workers bounds the construction worker pool. Values ≤ 0 mean
	// runtime.GOMAXPROCS(0). The result is bit-identical for every
	// worker count.
	Workers int
	// PruneRadius, when positive and finite, skips taxi→pickup cells
	// whose straight-line distance exceeds it; skipped cells read as
	// +Inf. Safe whenever the metric never beats the straight line
	// (true for every metric in this repository) and consumers treat
	// cells beyond the radius as unacceptable — which is exactly the
	// passenger-side dummy threshold Params.MaxPickup.
	PruneRadius float64
	// Pairs additionally computes the pickup→pickup matrix the sharing
	// pipeline's group formation reads.
	Pairs bool
	// PairRows limits the pickup→pickup matrix to the first PairRows
	// requests: the packing batch, a prefix of the frame queue, is all
	// group formation reads. Zero (or a value past the request count)
	// covers every request. Ignored without Pairs.
	PairRows int
	// PairRadius, when positive, prunes pickup→pickup cells the same
	// way PruneRadius prunes taxi→pickup cells. Zero computes every
	// pair (share.PackConfig.PairRadius = 0 disables pruning there
	// too).
	PairRadius float64
}

// netSlack widens a threshold radius limit − c (Radius) by this
// fraction of |limit| + |c|: far above the float64 rounding of the
// difference and of the market's lead + c test, so a cell the test
// would accept is always inside the radius.
const netSlack = 1e-9

// Entry is one stored taxi→pickup cell of a row.
type Entry struct {
	// Req is the request's index in Plane.Requests.
	Req int32
	// Dist is D(t_i, r_j^s) under the plane's metric.
	Dist float64
}

// Plane is an immutable per-frame distance oracle. Each taxi's row
// stores only the cells pruning kept, in request order; every other
// cell reads +Inf.
type Plane struct {
	// Requests and Taxis are the frame slices the plane was built over;
	// indices are positions in these slices.
	Requests []fleet.Request
	Taxis    []fleet.Taxi

	metric geo.Metric
	batch  geo.BatchMetric // metric when it batches (road network); nil otherwise
	euclid bool            // metric is geo.StraightLine: a disc test's distance is the cell's
	rows   [][]Entry       // [taxi] stored D(t_i, r_j^s) cells, ascending Req
	trip   []float64       // [request] D(r_j^s, r_j^d)
	pairs  [][]float64     // [j][k] D(r_j^s, r_k^s) for j, k < PairRows(); nil without Pairs

	buf storage // the memory the plane was built in; Rebuild and FillTaxis reuse it
}

// storage is the memory one build leaves behind: the slices the plane's
// rows, trips and pair rows sit in and the taxi pass's scratch. A plane
// handed to Rebuild as spent gives all of it to the new
// build, and FillTaxis reuses it, so a frame built into the last
// frame's plane allocates only where it outgrows it.
type storage struct {
	cells  []float64   // trips, then pair rows
	pairs  [][]float64 // the pair rows' headers
	radii  []float64   // the taxi pass's radii
	rows   [][]Entry   // the rows' headers
	arenas []rowArena  // one per worker: the blocks the rows sit in
	discs  []disc      // scanDiscs' discs
	cols   []int32     // and their request indices
	grid   discGrid    // the taxi pass's disc grid
}

// resize returns s with length n, reusing its array when it is large
// enough and growing it as append does when it is not; a nil s
// allocates exactly n. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return slices.Grow(s[:0], n)[:n]
}

// Metric returns the metric the plane was built with, for the residual
// queries a plane cannot serve (route permutations, walk legs).
func (p *Plane) Metric() geo.Metric { return p.metric }

// PickupDist returns D(t_i, r_j^s), or +Inf if the cell was pruned. It
// binary-searches taxi i's row; consumers that visit many cells walk
// PickupRow instead.
func (p *Plane) PickupDist(i, j int) float64 {
	row := p.rows[i]
	k, ok := slices.BinarySearchFunc(row, int32(j), func(e Entry, j int32) int { return cmp.Compare(e.Req, j) })
	if !ok {
		return math.Inf(1)
	}
	return row[k].Dist
}

// PickupRow returns taxi i's stored cells in ascending request order.
// The caller must not modify it.
func (p *Plane) PickupRow(i int) []Entry { return p.rows[i] }

// FullRow appends to dst taxi i's row with every request present,
// pruned cells reading +Inf — the row a market whose thresholds accept
// +Inf must visit — and returns it.
func (p *Plane) FullRow(i int, dst []Entry) []Entry {
	row := p.rows[i]
	for j := range p.Requests {
		if len(row) > 0 && int(row[0].Req) == j {
			dst = append(dst, row[0])
			row = row[1:]
			continue
		}
		dst = append(dst, Entry{Req: int32(j), Dist: math.Inf(1)})
	}
	return dst
}

// Trip returns D(r_j^s, r_j^d). Trips are always computed, never pruned.
func (p *Plane) Trip(j int) float64 { return p.trip[j] }

// Trips returns all solo trip distances. The caller must not modify it.
func (p *Plane) Trips() []float64 { return p.trip }

// PairRows returns how many leading requests the pickup→pickup matrix
// covers: Config.PairRows clamped to the request count, or 0 without
// Pairs.
func (p *Plane) PairRows() int { return len(p.pairs) }

// PairDist returns D(r_j^s, r_k^s), or +Inf if the cell was pruned.
// Valid only for j, k < PairRows().
func (p *Plane) PairDist(j, k int) float64 { return p.pairs[j][k] }

// Cells returns the number of addressable taxi→pickup cells.
func (p *Plane) Cells() int { return len(p.Taxis) * len(p.Requests) }

// Entries returns the number of stored taxi→pickup cells.
func (p *Plane) Entries() int {
	n := 0
	for _, row := range p.rows {
		n += len(row)
	}
	return n
}

// CostMatrix returns the dense request-major matrix — cost[j][i] =
// D(t_i, r_j^s), +Inf where pruned — the layout the baseline assignment
// solvers consume. The matrix is the caller's to mutate.
func (p *Plane) CostMatrix() [][]float64 {
	r, t := len(p.Requests), len(p.Taxis)
	cost := make([][]float64, r)
	cells := make([]float64, r*t)
	for k := range cells {
		cells[k] = math.Inf(1)
	}
	for i, row := range p.rows {
		for _, e := range row {
			cells[int(e.Req)*t+i] = e.Dist
		}
	}
	for j := range cost {
		cost[j] = cells[j*t : (j+1)*t : (j+1)*t]
	}
	return cost
}

// autoSerialCells is the pass size, in distance tests, below which auto
// worker sizing (Config.Workers ≤ 0) skips the pool: at a few thousand
// tests the goroutine spawn and join cost more than the distance work
// they would split. An explicit positive worker count is always
// honoured, so tests can force the pool onto arbitrarily small planes.
const autoSerialCells = 4096

// poolSize resolves a worker count for a pass of cells distance tests
// split into jobs jobs: ≤ 0 means GOMAXPROCS, or one worker below
// autoSerialCells.
func poolSize(workers, cells, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if cells < autoSerialCells {
			workers = 1
		}
	}
	return max(min(workers, jobs), 1)
}

// Build computes the plane for one frame in two parallel passes. The
// request pass computes the solo trips (and the batch's pair rows); the
// taxi pass then computes each taxi's row over the requests within
// cfg.PruneRadius (see FillTaxis).
// Jobs are rows, executed by min(cfg.Workers, rows) goroutines pulling
// from an atomic counter. Each row is written by exactly one job, so the
// result is bit-identical for every worker count.
func Build(reqs []fleet.Request, taxis []fleet.Taxi, metric geo.Metric, cfg Config) *Plane {
	return Rebuild(nil, reqs, taxis, metric, cfg)
}

// Rebuild is Build into spent's storage. It returns spent, so the
// caller must be done with spent and everything read from it; a nil
// spent allocates a new plane, which is Build.
func Rebuild(spent *Plane, reqs []fleet.Request, taxis []fleet.Taxi, metric geo.Metric, cfg Config) *Plane {
	p := spent
	if p == nil {
		p = new(Plane)
	}
	p.requestPass(reqs, len(taxis), metric, cfg)
	p.FillTaxis(taxis, cfg.Workers, func(_, dst []float64) []float64 {
		return appendRadii(dst, cfg, len(reqs))
	})
	return p
}

// requestPass resets p to a plane over reqs, keeping its storage, and
// computes the solo trips and, under cfg.Pairs, the batch's pair rows.
// t is the taxi count the taxi pass will cover, which sizes the pool.
func (p *Plane) requestPass(reqs []fleet.Request, t int, metric geo.Metric, cfg Config) {
	*p = Plane{Requests: reqs, metric: metric, buf: p.buf}
	p.batch, _ = metric.(geo.BatchMetric)
	_, p.euclid = metric.(geo.StraightLine)
	r := len(reqs)
	// The trips and the batch's pair rows share one dense slab: workers
	// write disjoint ranges, and a frame costs one allocation for them.
	// Pair rows cover the first m requests only, so the slab stays
	// m×m however long the queue grows.
	m := 0
	if cfg.Pairs {
		m = r
		if cfg.PairRows > 0 && cfg.PairRows < r {
			m = cfg.PairRows
		}
	}
	dense := r + m*m
	cells := resize(p.buf.cells, dense)
	p.buf.cells = cells
	p.trip = cells[:r:r]
	prunePair := cfg.Pairs && cfg.PairRadius > 0 && !math.IsInf(cfg.PairRadius, 1)
	if cfg.Pairs {
		p.buf.pairs = resize(p.buf.pairs, m)
		p.pairs = p.buf.pairs
		for j := range p.pairs {
			p.pairs[j] = cells[r+j*m : r+(j+1)*m : r+(j+1)*m]
		}
	}

	work := dense
	if p.batch != nil {
		// Each request row is a traversal, not a cell test: size the
		// pool by the whole plane, and by r columns when the taxi pass
		// comes later (FillTaxis).
		work += max(t, r) * r
	}
	parallel(poolSize(cfg.Workers, work, r), r, func(_, j int) {
		p.buildRequestRow(j, prunePair, cfg.PairRadius)
	})
}

// FillTaxis is the taxi pass of Build over radii the caller chooses,
// run in place: it sets p.Taxis to taxis and computes one row per taxi
// into p's storage, replacing the rows p had. radii(trips, dst) appends
// every request's radius to dst and returns it. Request j's column
// keeps a taxi whose straight-line distance to its pickup is at most
// radii[j]; a negative radius leaves the column out of the scan, and
// +Inf (or NaN) keeps every cell. A consumer may trust the plane only
// for pairs its own threshold test can accept within those radii.
// Workers ≤ 0 sizes the pool as Config.Workers does. The requests,
// trips and pair rows stay as they were.
func (p *Plane) FillTaxis(taxis []fleet.Taxi, workers int, radii func(trips, dst []float64) []float64) {
	p.buf.radii = radii(p.trip, p.buf.radii[:0])
	p.fillRows(taxis, p.buf.radii, workers)
}

// fillRows is the taxi pass: it sets p.Taxis and computes every taxi's
// row into p's storage, on a pool that workers sizes as Config.Workers
// does.
func (p *Plane) fillRows(taxis []fleet.Taxi, radii []float64, workers int) {
	b := &p.buf
	t := len(taxis)
	p.Taxis = taxis
	b.rows = resize(b.rows, t)
	p.rows = b.rows
	if t == 0 {
		return
	}
	var pruned bool
	b.discs, b.cols, pruned = scanDiscs(b.discs, b.cols, p.Requests, radii)
	discs, cols := b.discs, b.cols
	c := len(discs)
	if !pruned {
		// Every row holds every scanned column, so the rows share one
		// exactly sized slab.
		b.arenas = resize(b.arenas, 1)
		a := &b.arenas[0]
		a.start()
		slab := a.keep(a.reserve(t*c, t*c)[:t*c])
		parallel(poolSize(workers, t*c, t), t, func(_, i int) {
			p.rows[i] = p.buildPickupRow(i, discs, cols, nil, slab[i*c:i*c:(i+1)*c])
		})
		return
	}
	g := b.grid.build(taxis, discs)
	tests := t * c // without a grid every row tests every disc
	if g != nil {
		tests = 0
		for _, taxi := range taxis {
			tests += len(g.at(taxi.Pos))
		}
	}
	work := tests
	if p.batch != nil {
		// Each row is a traversal, not a cell test: size the pool by
		// the whole plane.
		work = t * c
	}
	workers = poolSize(workers, work, t)
	// A threshold plane keeps a few percent of the cells, so each
	// worker's first block guesses 1/32 of its share of the plane.
	b.arenas = resize(b.arenas, workers)
	arenas := b.arenas
	for w := range arenas {
		arenas[w].start()
	}
	hint := max(c, t*c/(32*workers))
	parallel(workers, t, func(w, i int) {
		a := &arenas[w]
		cand, n := []int32(nil), c
		if g != nil {
			cand = g.at(taxis[i].Pos)
			n = len(cand)
		}
		p.rows[i] = a.keep(p.buildPickupRow(i, discs, cols, cand, a.reserve(n, hint)))
	})
}

// parallel runs job(w, k) for k in [0, n) on `workers` goroutines, w
// naming the goroutine; a single worker runs inline.
func parallel(workers, n int, job func(w, k int)) {
	if workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			job(0, k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				job(w, k)
			}
		}()
	}
	wg.Wait()
}

// rowArena carves one worker's rows out of a few large blocks: a row is
// reserved at its worst case (every scanned column) and shrunk to the
// cells it kept, so a pruned plane costs a handful of allocations and
// no copying. The first block outlives the build: the next build into
// the same plane starts in it, and one that needed more blocks gets a
// first block of their whole size.
type rowArena struct {
	first []Entry // the build's first block
	free  []Entry // unused tail of the current block
	last  int     // size of the current block
	total int     // size of every block of the build
}

// start readies the arena for a new build.
func (a *rowArena) start() {
	if a.total > len(a.first) {
		a.first = make([]Entry, a.total)
	}
	a.free, a.last, a.total = nil, 0, 0
}

// reserve returns empty storage for up to n entries. The first block is
// the last build's, if it holds n, or else holds hint entries; each
// later one doubles.
func (a *rowArena) reserve(n, hint int) []Entry {
	if len(a.free) < n {
		if a.total == 0 && len(a.first) >= n {
			a.free = a.first
		} else {
			a.free = make([]Entry, max(n, hint, 2*a.last))
			if a.total == 0 {
				a.first = a.free
			}
		}
		a.last = len(a.free)
		a.total += a.last
	}
	return a.free[:0:n]
}

// keep commits row, which must be storage reserve just returned.
func (a *rowArena) keep(row []Entry) []Entry {
	a.free = a.free[len(row):]
	return row[:len(row):len(row)]
}

// Radius returns the straight-line pickup radius of a threshold test
// lead + c ≤ limit: limit − c, widened outward by netSlack so that any
// lead the float test accepts lies inside it. A NaN or infinite c never
// prunes (+Inf), nor does an infinite limit.
func Radius(limit, c float64) float64 {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return math.Inf(1)
	}
	return limit - c + netSlack*(math.Abs(limit)+math.Abs(c))
}

// appendRadii appends the pruning radius of each of n requests under
// cfg to dst and returns it: PruneRadius when positive, else +Inf, which
// prunes nothing.
func appendRadii(dst []float64, cfg Config, n int) []float64 {
	r := math.Inf(1)
	if cfg.PruneRadius > 0 {
		r = cfg.PruneRadius
	}
	for range n {
		dst = append(dst, r)
	}
	return dst
}

// disc is one scanned column's pickup with its taxi→pickup pruning
// radius r and the squared pre-test bound sq, packed into 32 bytes so
// the row scan streams through one small array.
type disc struct {
	pickup geo.Point
	r, sq  float64
}

// scanDiscs returns the discs of the columns whose radius is not
// negative, in request order, with each disc's request index, and
// whether any of them is finite (when none is, every row holds every
// scanned column), reusing the arrays of discs and cols. The squared
// bound carries a further relative slack so that it never rejects a
// point the exact rule keeps.
func scanDiscs(discs []disc, cols []int32, reqs []fleet.Request, radii []float64) ([]disc, []int32, bool) {
	discs, cols = resize(discs, len(radii))[:0], resize(cols, len(radii))[:0]
	pruned := false
	for j, r := range radii {
		if r < 0 {
			continue
		}
		discs = append(discs, disc{pickup: reqs[j].Pickup, r: r, sq: r * r * (1 + netSlack)})
		cols = append(cols, int32(j))
		pruned = pruned || !math.IsInf(r, 1)
	}
	return discs, cols, pruned
}

// discGrid buckets the scanned discs by the cells of a uniform grid
// over the taxis' bounding box: each disc is listed under every cell its
// bounding box, widened outward by netSlack as Radius widens a radius,
// overlaps, so a taxi whose cell does not list a disc lies outside it.
// The lists form one CSR index — cell k's discs are
// list[start[k]:start[k+1]] — each in ascending disc order, so a row
// built from one comes out in request order with no sort. The grid only
// narrows the candidates; the exact disc test still decides every cell.
type discGrid struct {
	minX, minY float64 // low corner of the taxis' bounding box
	inv        float64 // 1 / cell side; 0 for a single cell
	nx, ny     int     // cells per axis
	start      []int   // [cell] offset of its list in list; nx·ny+1 long
	list       []int32 // disc indices, ascending within each cell's list
	every      []int32 // every disc: the list of a taxi at a non-finite position; empty if no taxi is

	spans []cellSpan // [disc] the cells it is listed under: build's scratch
}

// cellSpan is the block of cells [x0, x1]×[y0, y1] a disc is listed
// under; x0 > x1 lists it nowhere.
type cellSpan struct{ x0, x1, y0, y1 int32 }

// build fills g, reusing its slices, with the grid over taxis'
// positions for discs and returns it, or returns nil when the full scan
// is cheaper. The cell side is the larger
// of √(area/T) and the longer side over T, so the grid has about one
// taxi per cell and at most 3T+1 cells; taxis all at one point (or a box
// too large to measure) get a single cell, which lists every disc and so
// takes the full scan. Taxis at non-finite positions stay off the grid
// and test every disc.
func (g *discGrid) build(taxis []fleet.Taxi, discs []disc) *discGrid {
	*g = discGrid{minX: math.Inf(1), minY: math.Inf(1), nx: 1, ny: 1,
		start: g.start, list: g.list, every: g.every[:0], spans: g.spans}
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	n := 0
	for _, taxi := range taxis {
		pos := taxi.Pos
		if !finite(pos) {
			if len(g.every) == 0 {
				for k := range discs {
					g.every = append(g.every, int32(k))
				}
			}
			continue
		}
		g.minX, g.minY = min(g.minX, pos.X), min(g.minY, pos.Y)
		maxX, maxY = max(maxX, pos.X), max(maxY, pos.Y)
		n++
	}
	if n > 0 {
		w, h := maxX-g.minX, maxY-g.minY
		side := max(math.Sqrt(w*h/float64(n)), w/float64(n), h/float64(n))
		if inv := 1 / side; inv > 0 && !math.IsInf(inv, 1) {
			// A taxi's cell coordinate rounds from (v − min)·inv, which
			// is at most w·inv, so no taxi falls past the last cell.
			g.inv, g.nx, g.ny = inv, int(w*inv)+1, int(h*inv)+1
		}
	}
	g.spans = resize(g.spans, len(discs))
	spans := g.spans
	listed := 0
	for k, d := range discs {
		spans[k] = g.span(d)
		listed += max(int(spans[k].x1-spans[k].x0+1), 0) * int(spans[k].y1-spans[k].y0+1)
	}
	if 4*listed > len(discs)*g.nx*g.ny {
		// The boxes cover over a quarter of the grid on average, so
		// each taxi would still test most discs: listing them costs more
		// than the tests it saves, and every row scans every disc.
		return nil
	}
	// Count each cell's discs into start, prefix-sum the counts into
	// each list's end, then fill in descending disc order: every end
	// walks back to its list's start, and each list comes out ascending.
	cells := g.nx * g.ny
	g.start = resize(g.start, cells+1)
	clear(g.start)
	for _, s := range spans {
		for y := s.y0; y <= s.y1; y++ {
			for x := s.x0; x <= s.x1; x++ {
				g.start[int(y)*g.nx+int(x)]++
			}
		}
	}
	for k := 1; k <= cells; k++ {
		g.start[k] += g.start[k-1]
	}
	g.list = resize(g.list, g.start[cells])
	for k := len(spans) - 1; k >= 0; k-- {
		s := spans[k]
		for y := s.y0; y <= s.y1; y++ {
			for x := s.x0; x <= s.x1; x++ {
				c := int(y)*g.nx + int(x)
				g.start[c]--
				g.list[g.start[c]] = int32(k)
			}
		}
	}
	return g
}

// span returns the cells that d's bounding box, widened outward by
// netSlack, overlaps: none when that box lies wholly outside the taxis'
// box, and every cell for a NaN or +Inf radius (or a NaN pickup
// coordinate, which the exact test cannot reject), which bounds
// nothing.
func (g *discGrid) span(d disc) cellSpan {
	w := d.r + netSlack*(d.r+math.Abs(d.pickup.X)+math.Abs(d.pickup.Y))
	ax, bx := (d.pickup.X-w-g.minX)*g.inv, (d.pickup.X+w-g.minX)*g.inv
	ay, by := (d.pickup.Y-w-g.minY)*g.inv, (d.pickup.Y+w-g.minY)*g.inv
	nx, ny := float64(g.nx), float64(g.ny)
	switch {
	case !(ax <= bx && ay <= by):
		return cellSpan{0, int32(g.nx - 1), 0, int32(g.ny - 1)}
	case bx < 0 || by < 0 || ax >= nx || ay >= ny:
		return cellSpan{0, -1, 0, -1}
	}
	return cellSpan{int32(max(ax, 0)), int32(min(bx, nx-1)), int32(max(ay, 0)), int32(min(by, ny-1))}
}

// at returns the discs a taxi at pos must test, in ascending order.
func (g *discGrid) at(pos geo.Point) []int32 {
	if !finite(pos) {
		return g.every
	}
	k := int((pos.Y-g.minY)*g.inv)*g.nx + int((pos.X-g.minX)*g.inv)
	return g.list[g.start[k]:g.start[k+1]]
}

// finite reports whether both of p's coordinates are finite: v − v is
// NaN exactly when v is ±Inf or NaN.
func finite(p geo.Point) bool {
	return !math.IsNaN(p.X-p.X) && !math.IsNaN(p.Y-p.Y)
}

// buildPickupRow appends taxi i's stored cells to dst, whose capacity
// holds every candidate, and returns it: the candidate discs that hold
// the taxi, where cand lists the candidates' indices into discs in
// ascending order and nil means every disc. The squared pre-test rejects
// most candidates before any square root; the exact straight-line rule
// decides the rest, so a row is the same whichever superset of its discs
// the candidates are. The straight line lower-bounds every metric here,
// so a pruned cell's true distance also exceeds its radius and fails the
// threshold the radius came from. Scalar metrics compute each kept cell
// directly, except that under geo.StraightLine a cell whose exact test
// ran keeps that test's distance; batching metrics spend one
// single-source traversal on the row's candidates.
func (p *Plane) buildPickupRow(i int, discs []disc, cols, cand []int32, dst []Entry) []Entry {
	src := p.Taxis[i].Pos
	var dsts []geo.Point // batching metrics: the row's candidate pickups
	keep := func(x int, dist float64, exact bool) {
		switch {
		case p.batch != nil:
			dst = append(dst, Entry{Req: cols[x]})
			dsts = append(dsts, discs[x].pickup)
		case exact && p.euclid:
			dst = append(dst, Entry{Req: cols[x], Dist: dist})
		default:
			dst = append(dst, Entry{Req: cols[x], Dist: p.metric.Distance(src, discs[x].pickup)})
		}
	}
	// The two loops run the same test. The full scan keeps a plain
	// range loop: one loop over indices, branching on cand each step,
	// built the dense BenchmarkCostPlane frame ~15% slower (2-vCPU
	// x86-64 VM).
	if cand == nil {
		for x, d := range discs {
			dx, dy := d.pickup.X-src.X, d.pickup.Y-src.Y
			switch {
			case dx*dx+dy*dy > d.sq:
			case math.IsInf(d.r, 1):
				keep(x, 0, false)
			default:
				if dist := geo.Euclid(src, d.pickup); !(dist > d.r) {
					keep(x, dist, true)
				}
			}
		}
	} else {
		for _, x := range cand {
			d := &discs[x]
			dx, dy := d.pickup.X-src.X, d.pickup.Y-src.Y
			switch {
			case dx*dx+dy*dy > d.sq:
			case math.IsInf(d.r, 1):
				keep(int(x), 0, false)
			default:
				if dist := geo.Euclid(src, d.pickup); !(dist > d.r) {
					keep(int(x), dist, true)
				}
			}
		}
	}
	if len(dsts) > 0 {
		row := dst[len(dst)-len(dsts):]
		for x, d := range p.batch.DistancesFrom(src, dsts) {
			row[x].Dist = d
		}
	}
	return dst
}

// buildRequestRow fills request j's solo trip distance and, for a
// request inside the pair rows, its pickup→pickup row over the pair
// rows' requests, skipping pairs farther apart than radius in a
// straight line when prune is set; under geo.StraightLine a kept pair
// keeps that test's distance, as buildPickupRow's cells do. On a
// batching metric the request's own dropoff rides the same traversal
// as the pair row, so a road-network request row costs one Dijkstra
// run total.
func (p *Plane) buildRequestRow(j int, prune bool, radius float64) {
	rq := p.Requests[j]
	if j >= len(p.pairs) {
		p.trip[j] = rq.TripDistance(p.metric)
		return
	}
	row := p.pairs[j]
	var kept []int       // batching metrics: the pair row's candidates
	var dsts []geo.Point // and their pickups
	for k, other := range p.Requests[:len(row)] {
		tested := prune && k != j
		var dist float64
		if tested {
			dist = geo.Euclid(rq.Pickup, other.Pickup)
		}
		switch {
		case k == j:
			row[k] = 0 // diagonal is exactly zero, no query needed
		case tested && dist > radius:
			row[k] = math.Inf(1)
		case tested && p.euclid:
			row[k] = dist
		case p.batch == nil:
			row[k] = p.metric.Distance(rq.Pickup, other.Pickup)
		default:
			kept = append(kept, k)
			dsts = append(dsts, other.Pickup)
		}
	}
	if p.batch == nil {
		p.trip[j] = rq.TripDistance(p.metric)
		return
	}
	vals := p.batch.DistancesFrom(rq.Pickup, append(dsts, rq.Dropoff))
	for x, k := range kept {
		row[k] = vals[x]
	}
	p.trip[j] = vals[len(kept)]
}
