// Package geo provides planar geometry primitives for the dispatch
// simulator: points on a city plane (kilometre units), distance metrics,
// and deterministic spatial sampling helpers.
//
// The paper models the city as a Euclidean surface with a shortest-path
// distance function D(·,·). Every distance computation in this repository
// goes through the Metric interface so that the Euclidean plane, a
// Manhattan grid, or a road network (package roadnet) can be swapped
// freely.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the city plane. Coordinates are in kilometres.
type Point struct {
	X float64
	Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y)
}

// Add returns the componentwise sum p + q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// Sub returns the componentwise difference p - q.
func (p Point) Sub(q Point) Point {
	return Point{X: p.X - q.X, Y: p.Y - q.Y}
}

// Euclid returns the Euclidean distance between p and q.
func Euclid(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Manhattan returns the L1 distance between p and q.
func Manhattan(p, q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func Lerp(p, q Point, t float64) Point {
	return Point{
		X: p.X + (q.X-p.X)*t,
		Y: p.Y + (q.Y-p.Y)*t,
	}
}

// Toward returns the point reached by travelling dist from p straight
// toward q. If dist meets or exceeds the Euclidean distance to q, q is
// returned along with the leftover distance.
func Toward(p, q Point, dist float64) (Point, float64) {
	total := Euclid(p, q)
	if total <= dist || total == 0 {
		return q, dist - total
	}
	return Lerp(p, q, dist/total), 0
}

// Metric measures travel distance between two points, in kilometres.
// Implementations must be symmetric, non-negative, and safe for
// concurrent use. Pruning relies on two more properties every metric
// here has: no distance beats the straight line (package costplane),
// and the triangle inequality D(a, c) ≤ D(a, b) + D(b, c) holds
// (package share's pair bounds).
type Metric interface {
	// Distance returns the travel distance from a to b.
	Distance(a, b Point) float64
}

// MetricFunc adapts a plain function to the Metric interface.
type MetricFunc func(a, b Point) float64

// Distance implements Metric.
func (f MetricFunc) Distance(a, b Point) float64 { return f(a, b) }

// BatchMetric is an optional Metric extension for single-source batch
// queries: one call answers the distance from src to every destination.
// Implementations backed by a graph traversal (package roadnet) amortise
// the traversal over the whole batch, so a batch of n queries costs one
// shortest-path tree instead of n cache probes. Results must be
// identical, bit for bit, to calling Distance per destination.
type BatchMetric interface {
	Metric
	// DistancesFrom returns the travel distance from src to each
	// destination, aligned by index.
	DistancesFrom(src Point, dsts []Point) []float64
}

// DistancesFrom computes src→dsts distances through m, using the
// BatchMetric fast path when m provides one and falling back to one
// Distance call per destination otherwise. The fallback makes every
// Metric usable where a batch is wanted (package costplane builds its
// per-frame planes through this helper).
func DistancesFrom(m Metric, src Point, dsts []Point) []float64 {
	if bm, ok := m.(BatchMetric); ok {
		return bm.DistancesFrom(src, dsts)
	}
	out := make([]float64, len(dsts))
	for i, d := range dsts {
		out[i] = m.Distance(src, d)
	}
	return out
}

// StraightLine is the straight-line metric, Euclid as a named type, so
// a consumer that already holds a pair's Euclid distance can recognise
// the metric by a type assertion and reuse the value (a func-typed
// Metric is not comparable). A metric wrapping it is not recognised.
type StraightLine struct{}

// Distance implements Metric.
func (StraightLine) Distance(a, b Point) float64 { return Euclid(a, b) }

var (
	_ Metric = MetricFunc(nil)

	// EuclidMetric measures straight-line distance.
	EuclidMetric Metric = StraightLine{}
	// ManhattanMetric measures L1 (grid) distance.
	ManhattanMetric Metric = MetricFunc(Manhattan)
)

// Rect is an axis-aligned bounding rectangle.
type Rect struct {
	Min Point
	Max Point
}

// NewRect returns the rectangle spanning the two corner points in any
// order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Clamp returns p constrained to lie within r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}
