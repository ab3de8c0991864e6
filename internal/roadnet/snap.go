package roadnet

import (
	"math"

	"stabledispatch/internal/geo"
)

// snapGrid is a uniform grid over a bounding rectangle that answers the
// metric's snap queries (nearest intersection to a point) without a
// scan over every node. Points outside the rectangle are clamped into
// the boundary cells, so the grid never loses entries.
type snapGrid struct {
	bounds   geo.Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]snapEntry
	count    int
}

type snapEntry struct {
	id int
	p  geo.Point
}

// newSnapIndex returns a grid over g's intersections sized for about
// one node per cell.
func newSnapIndex(g *Graph) *snapGrid {
	bounds := graphBounds(g)
	grid := newSnapGrid(bounds, snapCellSize(bounds, g.NumNodes()))
	for i := 0; i < g.NumNodes(); i++ {
		grid.insert(i, g.Node(i))
	}
	return grid
}

// newSnapGrid returns an empty grid over bounds with approximately
// cellSize-sized square cells. cellSize is clamped so the grid has at
// least one cell.
func newSnapGrid(bounds geo.Rect, cellSize float64) *snapGrid {
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
	return &snapGrid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]snapEntry, cols*rows),
	}
}

func (ix *snapGrid) cellOf(p geo.Point) (int, int) {
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

// insert adds a point with an opaque id. Duplicate ids are allowed.
func (ix *snapGrid) insert(id int, p geo.Point) {
	c, r := ix.cellOf(p)
	i := r*ix.cols + c
	ix.cells[i] = append(ix.cells[i], snapEntry{id: id, p: p})
	ix.count++
}

// nearest returns the id of the point closest to p in Euclidean
// distance, or -1 if the grid is empty. It expands ring-by-ring from p's
// cell, stopping once the current best cannot be beaten by any
// unexplored ring; among equidistant points the first visited wins.
func (ix *snapGrid) nearest(p geo.Point) int {
	if ix.count == 0 {
		return -1
	}
	pc, pr := ix.cellOf(p)
	id, bestDist := -1, math.Inf(1)
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
					id = e.id
				}
			}
		}
		if !found && ring > 0 && id >= 0 {
			break
		}
	}
	return id
}

// ringCells returns indices of cells on the square ring at Chebyshev
// distance `ring` from (pc, pr), clipped to the grid.
func (ix *snapGrid) ringCells(pc, pr, ring int) []int {
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

func graphBounds(g *Graph) geo.Rect {
	if g.NumNodes() == 0 {
		return geo.NewRect(geo.Point{}, geo.Point{X: 1, Y: 1})
	}
	r := geo.NewRect(g.Node(0), g.Node(0))
	for i := 1; i < g.NumNodes(); i++ {
		p := g.Node(i)
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}

func snapCellSize(bounds geo.Rect, n int) float64 {
	if n < 1 {
		n = 1
	}
	area := bounds.Width() * bounds.Height()
	if area <= 0 {
		return 1
	}
	// Aim for roughly one node per cell.
	size := area / float64(n)
	if size <= 0 {
		return 1
	}
	return math.Sqrt(size)
}
