package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stabledispatch/internal/geo"
)

func cityBounds() geo.Rect {
	return geo.NewRect(geo.Point{}, geo.Point{X: 20, Y: 20})
}

func TestInsertLen(t *testing.T) {
	ix := NewIndex(cityBounds(), 2)
	p := geo.Point{X: 3, Y: 4}
	ix.Insert(7, p)
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	// Duplicate ids are kept as separate entries.
	ix.Insert(7, p)
	if ix.Len() != 2 {
		t.Fatalf("Len after duplicate = %d, want 2", ix.Len())
	}
}

func TestNearestEmpty(t *testing.T) {
	ix := NewIndex(cityBounds(), 2)
	if _, _, ok := ix.Nearest(geo.Point{X: 1, Y: 1}); ok {
		t.Error("Nearest on empty index: ok = true, want false")
	}
	if ids := ix.WithinRadius(geo.Point{}, 5); ids != nil {
		t.Errorf("WithinRadius on empty index = %v, want nil", ids)
	}
}

func TestNearestSimple(t *testing.T) {
	ix := NewIndex(cityBounds(), 2)
	ix.Insert(1, geo.Point{X: 1, Y: 1})
	ix.Insert(2, geo.Point{X: 10, Y: 10})
	ix.Insert(3, geo.Point{X: 19, Y: 19})

	id, pos, ok := ix.Nearest(geo.Point{X: 9, Y: 9})
	if !ok || id != 2 {
		t.Errorf("Nearest = (%d, %v, %v), want id 2", id, pos, ok)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		ix := NewIndex(cityBounds(), 1.5)
		n := 1 + rng.Intn(60)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			ix.Insert(i, pts[i])
		}
		for q := 0; q < 20; q++ {
			query := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			bestID, bestDist := -1, math.Inf(1)
			for i, p := range pts {
				if d := geo.Euclid(query, p); d < bestDist {
					bestID, bestDist = i, d
				}
			}
			gotID, _, ok := ix.Nearest(query)
			if !ok {
				t.Fatalf("trial %d: Nearest returned !ok with %d points", trial, n)
			}
			gotDist := geo.Euclid(query, pts[gotID])
			if math.Abs(gotDist-bestDist) > 1e-9 {
				t.Fatalf("trial %d: Nearest dist %v, brute force %v (ids %d vs %d)",
					trial, gotDist, bestDist, gotID, bestID)
			}
		}
	}
}

func TestWithinRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ix := NewIndex(cityBounds(), 2.5)
		n := rng.Intn(60)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			ix.Insert(i, pts[i])
		}
		query := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		radius := rng.Float64() * 8

		got := ix.WithinRadius(query, radius)
		gotSet := make(map[int]bool, len(got))
		for _, id := range got {
			gotSet[id] = true
		}
		for i, p := range pts {
			want := geo.Euclid(query, p) <= radius
			if gotSet[i] != want {
				t.Fatalf("trial %d: id %d in-radius = %v, want %v", trial, i, gotSet[i], want)
			}
		}
	}
}

func TestOutOfBoundsPointsAreClamped(t *testing.T) {
	ix := NewIndex(cityBounds(), 2)
	outside := geo.Point{X: -50, Y: 300}
	ix.Insert(1, outside)
	id, _, ok := ix.Nearest(geo.Point{X: 0, Y: 20})
	if !ok || id != 1 {
		t.Errorf("Nearest = (%d, %v), want id 1 found", id, ok)
	}
}

func TestManyPointsSameCell(t *testing.T) {
	ix := NewIndex(cityBounds(), 10)
	for i := 0; i < 100; i++ {
		ix.Insert(i, geo.Point{X: 1 + float64(i)*0.01, Y: 1})
	}
	if id, _, ok := ix.Nearest(geo.Point{X: 1, Y: 1}); !ok || id != 0 {
		t.Fatalf("Nearest = (%d, %v), want id 0", id, ok)
	}
	ids := ix.WithinRadius(geo.Point{X: 1, Y: 1}, 0.045)
	sort.Ints(ids)
	want := []int{0, 1, 2, 3, 4}
	if !slices.Equal(ids, want) {
		t.Fatalf("WithinRadius = %v, want %v", ids, want)
	}
}
