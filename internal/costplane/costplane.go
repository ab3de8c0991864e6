// Package costplane builds the per-frame distance oracle every
// dispatcher queries: the taxi→pickup matrix, the solo trip distances,
// and (for the sharing pipeline) the pickup→pickup matrix, computed once
// per frame and then served to preference construction, the baselines'
// cost matrix, and share-group formation.
//
// Two things make the plane cheaper than the query-as-you-go pattern it
// replaces. First, spatial pruning: taxis farther than the pickup
// threshold from a pickup sit behind the passenger's dummy partner in
// every market built from the plane, so those cells are never computed —
// a spatial index over the frame's pickups keeps each taxi's candidate
// scan sub-linear. Second, batched parallel construction: each matrix
// row is one single-source job (served by geo.BatchMetric when the
// metric provides one, so a road-network row costs one Dijkstra
// traversal), and rows are computed by a bounded worker pool.
//
// Construction is bit-deterministic: every cell's value depends only on
// the inputs, never on worker count or scheduling, because workers write
// disjoint pre-allocated rows and the underlying metrics return
// cache-state-independent values.
package costplane

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/spatial"
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
	// PairRadius, when positive, prunes pickup→pickup cells the same
	// way PruneRadius prunes taxi→pickup cells. Zero computes every
	// pair (share.PackConfig.PairRadius = 0 disables pruning there
	// too).
	PairRadius float64
}

// Key is the portion of a Config that determines the plane's contents:
// everything except Workers, which only changes how fast the identical
// values are produced. sim.Frame memoises planes by Key.
type Key struct {
	PruneRadius float64
	Pairs       bool
	PairRadius  float64
}

// Key returns the memoisation key of c.
func (c Config) Key() Key {
	return Key{PruneRadius: c.PruneRadius, Pairs: c.Pairs, PairRadius: c.PairRadius}
}

// Plane is an immutable per-frame distance oracle. Cells skipped by
// pruning read as +Inf; everything else is the metric's exact value.
type Plane struct {
	// Requests and Taxis are the frame slices the plane was built over;
	// matrix indices are positions in these slices.
	Requests []fleet.Request
	Taxis    []fleet.Taxi

	metric geo.Metric
	batch  geo.BatchMetric // metric when it batches (road network); nil otherwise
	pickup [][]float64     // [taxi][request] D(t_i, r_j^s)
	trip   []float64       // [request] D(r_j^s, r_j^d)
	pairs  [][]float64     // [request][request] D(r_j^s, r_k^s); nil without Pairs

	allPickups []geo.Point // build-time scratch: every request's pickup
}

// Metric returns the metric the plane was built with, for the residual
// queries a plane cannot serve (route permutations, walk legs).
func (p *Plane) Metric() geo.Metric { return p.metric }

// PickupDist returns D(t_i, r_j^s), or +Inf if the cell was pruned.
func (p *Plane) PickupDist(i, j int) float64 { return p.pickup[i][j] }

// PickupRow returns taxi i's distance row, indexed by request. The
// caller must not modify it.
func (p *Plane) PickupRow(i int) []float64 { return p.pickup[i] }

// PickupMatrix returns the full taxi-major matrix. The caller must not
// modify it.
func (p *Plane) PickupMatrix() [][]float64 { return p.pickup }

// Trip returns D(r_j^s, r_j^d). Trips are always computed, never pruned.
func (p *Plane) Trip(j int) float64 { return p.trip[j] }

// Trips returns all solo trip distances. The caller must not modify it.
func (p *Plane) Trips() []float64 { return p.trip }

// HasPairs reports whether the pickup→pickup matrix was built.
func (p *Plane) HasPairs() bool { return p.pairs != nil }

// PairDist returns D(r_j^s, r_k^s), or +Inf if the cell was pruned.
// Valid only when HasPairs.
func (p *Plane) PairDist(j, k int) float64 { return p.pairs[j][k] }

// Cells returns the number of addressable taxi→pickup cells.
func (p *Plane) Cells() int { return len(p.Taxis) * len(p.Requests) }

// CostMatrix returns a request-major copy of the pickup matrix —
// cost[j][i] = D(t_i, r_j^s) — the layout the baseline assignment
// solvers consume. The copy is the caller's to mutate.
func (p *Plane) CostMatrix() [][]float64 {
	r, t := len(p.Requests), len(p.Taxis)
	cost := make([][]float64, r)
	cells := make([]float64, r*t)
	for j := 0; j < r; j++ {
		row := cells[j*t : (j+1)*t : (j+1)*t]
		for i := 0; i < t; i++ {
			row[i] = p.pickup[i][j]
		}
		cost[j] = row
	}
	return cost
}

// autoSerialCells is the plane size below which auto worker sizing
// (Config.Workers ≤ 0) skips the pool: at a few thousand cells the
// goroutine spawn and join cost more than the distance work they would
// split. An explicit positive worker count is always honoured, so tests
// can force the pool onto arbitrarily small planes.
const autoSerialCells = 4096

// Build computes the plane for one frame. Jobs are rows — one per taxi,
// plus one per request when trips ride a batched traversal — executed by
// min(cfg.Workers, rows) goroutines pulling from an atomic counter. Each
// job writes only its own pre-allocated row, so the result is
// bit-identical for every worker count.
func Build(reqs []fleet.Request, taxis []fleet.Taxi, metric geo.Metric, cfg Config) *Plane {
	p := &Plane{
		Requests: reqs,
		Taxis:    taxis,
		metric:   metric,
		pickup:   make([][]float64, len(taxis)),
	}
	p.batch, _ = metric.(geo.BatchMetric)
	r, t := len(reqs), len(taxis)
	// Every row lives in one backing slab: workers still write disjoint
	// ranges, and a frame costs one cell allocation instead of one per
	// taxi and request.
	cellCount := t*r + r
	if cfg.Pairs {
		cellCount += r * r
	}
	cells := make([]float64, cellCount)
	for i := range p.pickup {
		p.pickup[i] = cells[i*r : (i+1)*r : (i+1)*r]
	}
	p.trip = cells[t*r : t*r+r : t*r+r]
	pruneTaxi := cfg.PruneRadius > 0 && !math.IsInf(cfg.PruneRadius, 1)
	prunePair := cfg.Pairs && cfg.PairRadius > 0 && !math.IsInf(cfg.PairRadius, 1)
	if cfg.Pairs {
		p.pairs = make([][]float64, r)
		base := t*r + r
		for j := range p.pairs {
			p.pairs[j] = cells[base+j*r : base+(j+1)*r : base+(j+1)*r]
		}
	}

	// The spatial index and the shared destination scratch only pay off
	// on batching metrics, where a row is one single-source traversal;
	// scalar metrics take the direct per-pair path below, which prunes
	// by the same straight-line rule without allocating.
	var pickups *spatial.Index
	if p.batch != nil && r > 0 {
		if pruneTaxi || prunePair {
			maxRadius := cfg.PruneRadius
			if prunePair && cfg.PairRadius > maxRadius {
				maxRadius = cfg.PairRadius
			}
			pickups = pickupIndex(reqs, maxRadius)
		}
		p.allPickups = make([]geo.Point, r)
		for j, rq := range reqs {
			p.allPickups[j] = rq.Pickup
		}
	}

	jobs := t + r
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if cellCount < autoSerialCells {
			workers = 1
		}
	}
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for i := 0; i < t; i++ {
			p.buildPickupRow(i, pruneTaxi, cfg.PruneRadius, pickups)
		}
		for j := 0; j < r; j++ {
			p.buildRequestRow(j, cfg.Pairs, prunePair, cfg.PairRadius, pickups)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= jobs {
						return
					}
					if k < t {
						p.buildPickupRow(k, pruneTaxi, cfg.PruneRadius, pickups)
					} else {
						p.buildRequestRow(k-t, cfg.Pairs, prunePair, cfg.PairRadius, pickups)
					}
				}
			}()
		}
		wg.Wait()
	}

	p.allPickups = nil
	return p
}

// pickupIndex builds the spatial index over request pickups used for
// candidate pruning. Cells a quarter of the query radius keep the ring
// scan small while the grid stays coarse enough to hold the frame's
// pickups in a handful of cells.
func pickupIndex(reqs []fleet.Request, radius float64) *spatial.Index {
	bounds := geo.NewRect(reqs[0].Pickup, reqs[0].Pickup)
	for _, rq := range reqs[1:] {
		p := rq.Pickup
		if p.X < bounds.Min.X {
			bounds.Min.X = p.X
		}
		if p.X > bounds.Max.X {
			bounds.Max.X = p.X
		}
		if p.Y < bounds.Min.Y {
			bounds.Min.Y = p.Y
		}
		if p.Y > bounds.Max.Y {
			bounds.Max.Y = p.Y
		}
	}
	cell := radius / 4
	if cell <= 0 {
		cell = 1
	}
	ix := spatial.NewIndex(bounds, cell)
	for j, rq := range reqs {
		ix.Insert(j, rq.Pickup)
	}
	return ix
}

// buildPickupRow fills taxi i's distance row. With pruning, only the
// pickups within the straight-line radius are computed — the straight
// line lower-bounds every metric here, so a pruned cell's true distance
// also exceeds the radius and sits behind the dummy partner regardless.
// Batching metrics go through the spatial index and one single-source
// traversal; scalar metrics apply the identical straight-line rule
// per pair, which allocates nothing.
func (p *Plane) buildPickupRow(i int, prune bool, radius float64, pickups *spatial.Index) {
	row := p.pickup[i]
	src := p.Taxis[i].Pos
	if p.batch == nil {
		for j, rq := range p.Requests {
			if prune && geo.Euclid(src, rq.Pickup) > radius {
				row[j] = math.Inf(1)
				continue
			}
			row[j] = p.metric.Distance(src, rq.Pickup)
		}
		return
	}
	if !prune {
		copy(row, p.batch.DistancesFrom(src, p.allPickups))
		return
	}
	for j := range row {
		row[j] = math.Inf(1)
	}
	var cand []int
	if pickups != nil {
		cand = pickups.WithinRadius(src, radius)
	}
	if len(cand) > 0 {
		dsts := make([]geo.Point, len(cand))
		for x, j := range cand {
			dsts[x] = p.Requests[j].Pickup
		}
		vals := p.batch.DistancesFrom(src, dsts)
		for x, j := range cand {
			row[j] = vals[x]
		}
	}
}

// buildRequestRow fills request j's solo trip distance and, when pairs
// are requested, its pickup→pickup row. The request's own dropoff rides
// the same batched traversal as the pair row, so a road-network request
// row costs one Dijkstra run total.
func (p *Plane) buildRequestRow(j int, pairs, prune bool, radius float64, pickups *spatial.Index) {
	rq := p.Requests[j]
	if !pairs {
		p.trip[j] = rq.TripDistance(p.metric)
		return
	}
	r := len(p.Requests)
	row := p.pairs[j]
	if p.batch == nil {
		for k, other := range p.Requests {
			switch {
			case k == j:
				row[k] = 0 // diagonal is exactly zero, no query needed
			case prune && geo.Euclid(rq.Pickup, other.Pickup) > radius:
				row[k] = math.Inf(1)
			default:
				row[k] = p.metric.Distance(rq.Pickup, other.Pickup)
			}
		}
		p.trip[j] = p.metric.Distance(rq.Pickup, rq.Dropoff)
		return
	}
	var cand []int
	if prune {
		for k := range row {
			row[k] = math.Inf(1)
		}
		cand = pickups.WithinRadius(rq.Pickup, radius)
	} else {
		cand = make([]int, r)
		for k := range cand {
			cand[k] = k
		}
	}
	// One batch: the near pickups plus the request's own dropoff.
	dsts := make([]geo.Point, 0, len(cand)+1)
	kept := cand[:0]
	for _, k := range cand {
		if k == j {
			continue // diagonal is exactly zero, no query needed
		}
		kept = append(kept, k)
		dsts = append(dsts, p.Requests[k].Pickup)
	}
	dsts = append(dsts, rq.Dropoff)
	vals := p.batch.DistancesFrom(rq.Pickup, dsts)
	for x, k := range kept {
		row[k] = vals[x]
	}
	row[j] = 0
	p.trip[j] = vals[len(vals)-1]
}
