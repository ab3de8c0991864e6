package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"stabledispatch/internal/geo"
)

func cityBounds() geo.Rect {
	return geo.NewRect(geo.Point{}, geo.Point{X: 20, Y: 20})
}

// TestNearestMatchesBruteForce is the reference for snapping: the grid's
// ring search must find a point as close as a scan over every point.
func TestNearestMatchesBruteForce(t *testing.T) {
	if got := newSnapGrid(cityBounds(), 2).nearest(geo.Point{X: 1, Y: 1}); got != -1 {
		t.Fatalf("nearest on empty grid = %d, want -1", got)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		ix := newSnapGrid(cityBounds(), 1.5)
		n := 1 + rng.Intn(60)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			ix.insert(i, pts[i])
		}
		for q := 0; q < 20; q++ {
			query := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			bestID, bestDist := -1, math.Inf(1)
			for i, p := range pts {
				if d := geo.Euclid(query, p); d < bestDist {
					bestID, bestDist = i, d
				}
			}
			gotID := ix.nearest(query)
			if gotID < 0 {
				t.Fatalf("trial %d: nearest found nothing among %d points", trial, n)
			}
			gotDist := geo.Euclid(query, pts[gotID])
			if math.Abs(gotDist-bestDist) > 1e-9 {
				t.Fatalf("trial %d: nearest dist %v, brute force %v (ids %d vs %d)",
					trial, gotDist, bestDist, gotID, bestID)
			}
		}
	}
}

func TestOutOfBoundsPointsAreClamped(t *testing.T) {
	ix := newSnapGrid(cityBounds(), 2)
	ix.insert(1, geo.Point{X: -50, Y: 300})
	if id := ix.nearest(geo.Point{X: 0, Y: 20}); id != 1 {
		t.Errorf("nearest = %d, want 1", id)
	}
}
