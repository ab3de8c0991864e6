// Package spatial provides a uniform grid index over planar points with
// nearest-neighbour and radius queries.
//
// The greedy dispatcher and the RAII carpool baseline both need "closest
// idle taxi" and "taxis within radius" queries against hundreds of moving
// taxis per frame; a cell grid keeps those queries sub-linear without the
// complexity of a rebalancing tree.
package spatial

import (
	"math"

	"stabledispatch/internal/geo"
)

// Index is a uniform grid over a bounding rectangle. Points outside the
// rectangle are clamped into the boundary cells, so the index never loses
// entries. The zero value is not usable; construct with NewIndex.
type Index struct {
	bounds   geo.Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]entry
	count    int
}

type entry struct {
	id int
	p  geo.Point
}

// NewIndex returns an index over bounds with approximately cellSize-sized
// square cells. cellSize is clamped so the grid has at least one cell.
func NewIndex(bounds geo.Rect, cellSize float64) *Index {
	if cellSize <= 0 {
		cellSize = 1
	}
	cols := int(math.Ceil(bounds.Width()/cellSize)) + 1
	rows := int(math.Ceil(bounds.Height()/cellSize)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Index{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]entry, cols*rows),
	}
}

// Len returns the number of points currently in the index.
func (ix *Index) Len() int { return ix.count }

func (ix *Index) cellOf(p geo.Point) (int, int) {
	c := int((p.X - ix.bounds.Min.X) / ix.cellSize)
	r := int((p.Y - ix.bounds.Min.Y) / ix.cellSize)
	if c < 0 {
		c = 0
	}
	if c >= ix.cols {
		c = ix.cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= ix.rows {
		r = ix.rows - 1
	}
	return c, r
}

// Insert adds a point with an opaque id. Duplicate ids are allowed.
func (ix *Index) Insert(id int, p geo.Point) {
	c, r := ix.cellOf(p)
	i := r*ix.cols + c
	ix.cells[i] = append(ix.cells[i], entry{id: id, p: p})
	ix.count++
}

// Nearest returns the id and position of the indexed point closest to p
// (in Euclidean distance), or ok=false if the index is empty. It expands
// ring-by-ring from p's cell, stopping once the current best cannot be
// beaten by any unexplored ring.
func (ix *Index) Nearest(p geo.Point) (id int, pos geo.Point, ok bool) {
	if ix.count == 0 {
		return 0, geo.Point{}, false
	}
	pc, pr := ix.cellOf(p)
	bestDist := math.Inf(1)
	maxRing := ix.cols
	if ix.rows > maxRing {
		maxRing = ix.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Any point in a cell at this ring is at least
		// (ring-1)*cellSize away, so stop when that bound exceeds
		// the best found.
		if bestDist < float64(ring-1)*ix.cellSize {
			break
		}
		found := false
		for _, ci := range ix.ringCells(pc, pr, ring) {
			found = true
			for _, e := range ix.cells[ci] {
				if d := geo.Euclid(p, e.p); d < bestDist {
					bestDist = d
					id, pos, ok = e.id, e.p, true
				}
			}
		}
		if !found && ring > 0 && ok {
			break
		}
	}
	return id, pos, ok
}

// WithinRadius returns the ids of all points within radius of p.
func (ix *Index) WithinRadius(p geo.Point, radius float64) []int {
	if radius < 0 || ix.count == 0 {
		return nil
	}
	var ids []int
	pc, pr := ix.cellOf(p)
	ringMax := int(math.Ceil(radius/ix.cellSize)) + 1
	for ring := 0; ring <= ringMax; ring++ {
		for _, ci := range ix.ringCells(pc, pr, ring) {
			for _, e := range ix.cells[ci] {
				if geo.Euclid(p, e.p) <= radius {
					ids = append(ids, e.id)
				}
			}
		}
	}
	return ids
}

// ringCells returns indices of cells on the square ring at Chebyshev
// distance `ring` from (pc, pr), clipped to the grid.
func (ix *Index) ringCells(pc, pr, ring int) []int {
	var out []int
	if ring == 0 {
		out = append(out, pr*ix.cols+pc)
		return out
	}
	for c := pc - ring; c <= pc+ring; c++ {
		if c < 0 || c >= ix.cols {
			continue
		}
		for _, r := range [2]int{pr - ring, pr + ring} {
			if r >= 0 && r < ix.rows {
				out = append(out, r*ix.cols+c)
			}
		}
	}
	for r := pr - ring + 1; r <= pr+ring-1; r++ {
		if r < 0 || r >= ix.rows {
			continue
		}
		for _, c := range [2]int{pc - ring, pc + ring} {
			if c >= 0 && c < ix.cols {
				out = append(out, r*ix.cols+c)
			}
		}
	}
	return out
}
