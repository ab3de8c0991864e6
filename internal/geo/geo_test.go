package geo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestEuclid(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{name: "same point", a: Point{X: 1, Y: 2}, b: Point{X: 1, Y: 2}, want: 0},
		{name: "unit x", a: Point{}, b: Point{X: 1}, want: 1},
		{name: "3-4-5", a: Point{}, b: Point{X: 3, Y: 4}, want: 5},
		{name: "negative coords", a: Point{X: -1, Y: -1}, b: Point{X: 2, Y: 3}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Euclid(tt.a, tt.b); !almostEqual(got, tt.want) {
				t.Errorf("Euclid(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestManhattan(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{name: "same point", a: Point{X: 1, Y: 2}, b: Point{X: 1, Y: 2}, want: 0},
		{name: "diagonal", a: Point{}, b: Point{X: 3, Y: 4}, want: 7},
		{name: "negative", a: Point{X: -2, Y: 0}, b: Point{X: 2, Y: -1}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Manhattan(tt.a, tt.b); !almostEqual(got, tt.want) {
				t.Errorf("Manhattan(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestMetricProperties(t *testing.T) {
	metrics := map[string]Metric{
		"euclid":    EuclidMetric,
		"manhattan": ManhattanMetric,
	}
	for name, m := range metrics {
		t.Run(name, func(t *testing.T) {
			symmetric := func(ax, ay, bx, by float64) bool {
				a := Point{X: math.Mod(ax, 100), Y: math.Mod(ay, 100)}
				b := Point{X: math.Mod(bx, 100), Y: math.Mod(by, 100)}
				return almostEqual(m.Distance(a, b), m.Distance(b, a))
			}
			if err := quick.Check(symmetric, nil); err != nil {
				t.Errorf("symmetry violated: %v", err)
			}
			nonNegative := func(ax, ay, bx, by float64) bool {
				a := Point{X: math.Mod(ax, 100), Y: math.Mod(ay, 100)}
				b := Point{X: math.Mod(bx, 100), Y: math.Mod(by, 100)}
				return m.Distance(a, b) >= 0
			}
			if err := quick.Check(nonNegative, nil); err != nil {
				t.Errorf("non-negativity violated: %v", err)
			}
			triangle := func(ax, ay, bx, by, cx, cy float64) bool {
				a := Point{X: math.Mod(ax, 100), Y: math.Mod(ay, 100)}
				b := Point{X: math.Mod(bx, 100), Y: math.Mod(by, 100)}
				c := Point{X: math.Mod(cx, 100), Y: math.Mod(cy, 100)}
				return m.Distance(a, c) <= m.Distance(a, b)+m.Distance(b, c)+1e-9
			}
			if err := quick.Check(triangle, nil); err != nil {
				t.Errorf("triangle inequality violated: %v", err)
			}
		})
	}
}

func TestLerp(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 10, Y: -10}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp(a, b, 0) = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp(a, b, 1) = %v, want %v", got, b)
	}
	mid := Lerp(a, b, 0.5)
	if !almostEqual(mid.X, 5) || !almostEqual(mid.Y, -5) {
		t.Errorf("Lerp(a, b, 0.5) = %v, want (5, -5)", mid)
	}
}

func TestToward(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 10, Y: 0}

	got, left := Toward(a, b, 4)
	if !almostEqual(got.X, 4) || !almostEqual(got.Y, 0) || left != 0 {
		t.Errorf("Toward partial = %v leftover %v, want (4,0) leftover 0", got, left)
	}

	got, left = Toward(a, b, 15)
	if got != b || !almostEqual(left, 5) {
		t.Errorf("Toward overshoot = %v leftover %v, want %v leftover 5", got, left, b)
	}

	got, left = Toward(a, a, 3)
	if got != a || !almostEqual(left, 3) {
		t.Errorf("Toward zero-length = %v leftover %v, want %v leftover 3", got, left, a)
	}
}

func TestTowardNeverOvershoots(t *testing.T) {
	f := func(ax, ay, bx, by, rawDist float64) bool {
		a := Point{X: math.Mod(ax, 50), Y: math.Mod(ay, 50)}
		b := Point{X: math.Mod(bx, 50), Y: math.Mod(by, 50)}
		dist := math.Abs(math.Mod(rawDist, 100))
		got, left := Toward(a, b, dist)
		if left < 0 {
			return false
		}
		// Travelled distance plus leftover equals the budget.
		return almostEqual(Euclid(a, got)+left, dist) || Euclid(a, got) <= dist+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{X: 4, Y: -2}, Point{X: -1, Y: 6})
	if r.Min.X != -1 || r.Min.Y != -2 || r.Max.X != 4 || r.Max.Y != 6 {
		t.Fatalf("NewRect got %+v", r)
	}
	if !almostEqual(r.Width(), 5) || !almostEqual(r.Height(), 8) {
		t.Errorf("Width/Height = %v/%v, want 5/8", r.Width(), r.Height())
	}
	c := r.Center()
	if !almostEqual(c.X, 1.5) || !almostEqual(c.Y, 2) {
		t.Errorf("Center = %v, want (1.5, 2)", c)
	}
	if !r.Contains(Point{X: 0, Y: 0}) {
		t.Error("Contains(origin) = false, want true")
	}
	if r.Contains(Point{X: 5, Y: 0}) {
		t.Error("Contains((5,0)) = true, want false")
	}
	clamped := r.Clamp(Point{X: 100, Y: -100})
	if clamped.X != 4 || clamped.Y != -2 {
		t.Errorf("Clamp = %v, want (4, -2)", clamped)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{X: 1, Y: 2}
	q := Point{X: 3, Y: -4}
	if got := p.Add(q); got != (Point{X: 4, Y: -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{X: -2, Y: 6}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	r := NewRect(Point{}, Point{X: 10, Y: 10})
	s1 := NewSampler(42)
	s2 := NewSampler(42)
	for i := 0; i < 100; i++ {
		if s1.Normal(r.Center(), 2) != s2.Normal(r.Center(), 2) {
			t.Fatal("same seed produced different normal samples")
		}
	}
}

func TestSamplerNormalIn(t *testing.T) {
	r := NewRect(Point{}, Point{X: 1, Y: 1})
	s := NewSampler(9)
	for i := 0; i < 1000; i++ {
		p := s.NormalIn(r.Center(), 10, r)
		if !r.Contains(p) {
			t.Fatalf("NormalIn sample %v outside rect", p)
		}
	}
}

func TestSamplerNormalSpread(t *testing.T) {
	s := NewSampler(11)
	center := Point{X: 5, Y: 5}
	const n = 20000
	var sumX, sumY float64
	for i := 0; i < n; i++ {
		p := s.Normal(center, 2)
		sumX += p.X
		sumY += p.Y
	}
	meanX, meanY := sumX/n, sumY/n
	if math.Abs(meanX-5) > 0.1 || math.Abs(meanY-5) > 0.1 {
		t.Errorf("normal sample mean = (%v, %v), want close to (5, 5)", meanX, meanY)
	}
}

func TestSamplerHelpers(t *testing.T) {
	s := NewSampler(3)
	for i := 0; i < 100; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := s.ExpFloat64(); v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		if v := s.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	perm := s.Perm(10)
	seen := make(map[int]bool)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", perm)
		}
		seen[v] = true
	}
}

func TestPointString(t *testing.T) {
	got := Point{X: 1.5, Y: -2}.String()
	if !strings.Contains(got, "1.500") || !strings.Contains(got, "-2.000") {
		t.Errorf("String = %q", got)
	}
}
