package geo

import "math/rand"

// Sampler draws deterministic pseudo-random points for trace generation
// and tests. It wraps a *rand.Rand so that every experiment is exactly
// reproducible from its seed.
type Sampler struct {
	rng *rand.Rand
}

// NewSampler returns a Sampler seeded with seed.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed))}
}

// Normal draws a point from an isotropic 2-D normal distribution centred
// at center with the given standard deviation. The paper seeds taxi
// locations this way ("the locations of taxis follow a two-dimensional
// normal distribution from the center of the city").
func (s *Sampler) Normal(center Point, stddev float64) Point {
	return Point{
		X: center.X + s.rng.NormFloat64()*stddev,
		Y: center.Y + s.rng.NormFloat64()*stddev,
	}
}

// NormalIn draws from the 2-D normal and clamps the result to r, so that
// every sampled location stays inside the city limits.
func (s *Sampler) NormalIn(center Point, stddev float64, r Rect) Point {
	return r.Clamp(s.Normal(center, stddev))
}

// Float64 returns a uniform value in [0, 1).
func (s *Sampler) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform value in [0, n).
func (s *Sampler) Intn(n int) int { return s.rng.Intn(n) }

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (s *Sampler) ExpFloat64() float64 { return s.rng.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (s *Sampler) Perm(n int) []int { return s.rng.Perm(n) }
