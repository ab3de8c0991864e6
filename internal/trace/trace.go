// Package trace models passenger-request traces: CSV load/save for real
// data and synthetic generators calibrated to the two traces the paper
// evaluates on — New York (January 2016, 1,445,285 requests, 700 taxis)
// and Boston (September 2012, 406,247 requests, 200 taxis).
//
// The real datasets are not redistributable here, so the generators
// preserve the statistics the evaluation depends on: daily request
// volume, relative city extent (the New York trace covers a much larger
// area, which the paper uses to explain the taller dissatisfaction CDFs),
// clustered demand hotspots, a diurnal rate curve peaking at 9am and 6pm,
// and taxi seeding from a 2-D normal distribution around the city center.
package trace

import (
	"fmt"
	"math"
	"strings"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// Hotspot is one demand cluster: trips start (and end) near hotspot
// centers with Gaussian spread.
type Hotspot struct {
	Center geo.Point
	StdDev float64
	// Weight is the relative share of demand this hotspot attracts.
	Weight float64
}

// City describes the spatial layout of a simulated city.
type City struct {
	Name string
	// Bounds clips all sampled locations.
	Bounds geo.Rect
	// Hotspots drive pickup and drop-off sampling. Must be non-empty
	// with positive total weight.
	Hotspots []Hotspot
	// TaxiStdDev is the spread of the 2-D normal taxi seeding around
	// the city center (the paper's taxi placement model).
	TaxiStdDev float64
	// LocalTripKm is the mean length of a local trip; most taxi rides
	// are short hops, which keeps the fleet's ride throughput at the
	// real traces' levels.
	LocalTripKm float64
	// CrossTownProb is the fraction of trips that run hotspot-to-
	// hotspot across the city instead of locally.
	CrossTownProb float64
	// RequestsPerDay and Fleet are the paper's §VI calibration for the
	// city: its trace's mean daily request volume and the fleet size
	// the evaluation runs. Zero for a city the paper does not evaluate.
	RequestsPerDay int
	Fleet          int
}

// Validate reports malformed city descriptions.
func (c City) Validate() error {
	if c.Bounds.Width() <= 0 || c.Bounds.Height() <= 0 {
		return fmt.Errorf("trace: city %q has degenerate bounds", c.Name)
	}
	if len(c.Hotspots) == 0 {
		return fmt.Errorf("trace: city %q has no hotspots", c.Name)
	}
	total := 0.0
	for _, h := range c.Hotspots {
		if h.StdDev <= 0 || h.Weight < 0 {
			return fmt.Errorf("trace: city %q has invalid hotspot %+v", c.Name, h)
		}
		total += h.Weight
	}
	if total <= 0 {
		return fmt.Errorf("trace: city %q has zero total hotspot weight", c.Name)
	}
	if c.TaxiStdDev <= 0 {
		return fmt.Errorf("trace: city %q has invalid taxi spread %v", c.Name, c.TaxiStdDev)
	}
	if c.LocalTripKm <= 0 {
		return fmt.Errorf("trace: city %q has invalid local trip length %v", c.Name, c.LocalTripKm)
	}
	if c.CrossTownProb < 0 || c.CrossTownProb > 1 {
		return fmt.Errorf("trace: city %q has invalid cross-town probability %v", c.Name, c.CrossTownProb)
	}
	return nil
}

// NewYork returns the synthetic stand-in for the paper's New York trace:
// a 60×60 km region (the TLC trace spans the whole New York state side,
// much larger than Boston) with Manhattan-like concentration plus outer
// boroughs.
func NewYork() City {
	return City{
		Name:   "newyork",
		Bounds: geo.NewRect(geo.Point{}, geo.Point{X: 60, Y: 60}),
		Hotspots: []Hotspot{
			{Center: geo.Point{X: 30, Y: 32}, StdDev: 2.0, Weight: 6},   // Manhattan core
			{Center: geo.Point{X: 33, Y: 27}, StdDev: 2.5, Weight: 2},   // Brooklyn
			{Center: geo.Point{X: 38, Y: 34}, StdDev: 2.5, Weight: 1.5}, // Queens
			{Center: geo.Point{X: 28, Y: 40}, StdDev: 2.0, Weight: 1},   // Bronx
			{Center: geo.Point{X: 14, Y: 14}, StdDev: 4.0, Weight: 0.5}, // outer region
			{Center: geo.Point{X: 48, Y: 48}, StdDev: 4.0, Weight: 0.5}, // outer region
		},
		TaxiStdDev:     6,
		LocalTripKm:    1.6,
		CrossTownProb:  0.06,
		RequestsPerDay: 46600,
		Fleet:          700,
	}
}

// Boston returns the synthetic stand-in for the Boston trace: a compact
// 20×20 km region with a strong downtown core.
func Boston() City {
	return City{
		Name:   "boston",
		Bounds: geo.NewRect(geo.Point{}, geo.Point{X: 20, Y: 20}),
		Hotspots: []Hotspot{
			{Center: geo.Point{X: 10, Y: 11}, StdDev: 1.0, Weight: 6},    // downtown
			{Center: geo.Point{X: 8, Y: 12}, StdDev: 1.0, Weight: 2},     // Cambridge
			{Center: geo.Point{X: 11.5, Y: 8.5}, StdDev: 1.2, Weight: 1}, // Dorchester
			{Center: geo.Point{X: 13, Y: 12}, StdDev: 1.4, Weight: 1},    // airport/east
		},
		TaxiStdDev:     2,
		LocalTripKm:    1.3,
		CrossTownProb:  0.10,
		RequestsPerDay: 13500,
		Fleet:          200,
	}
}

// CityByName resolves a city name, case-insensitively: "boston", or
// "newyork" (also "nyc" and "new-york").
func CityByName(name string) (City, error) {
	switch strings.ToLower(name) {
	case "boston":
		return Boston(), nil
	case "newyork", "nyc", "new-york":
		return NewYork(), nil
	}
	return City{}, fmt.Errorf("unknown city %q (want boston or newyork)", name)
}

// hourWeights is the diurnal demand profile: relative request intensity
// per clock hour, with morning (9am) and evening (6pm) rush peaks — the
// pattern Fig. 7 of the paper keys on.
var hourWeights = [24]float64{
	1.6, 1.2, 0.9, 0.8, 0.8, 0.9, // 12am-5am
	1.4, 2.2, 3.0, 3.3, 2.8, 2.6, // 6am-11am, peak at 9am
	2.6, 2.5, 2.5, 2.6, 2.8, 3.1, // 12pm-5pm
	3.5, 3.3, 2.9, 2.6, 2.3, 1.9, // 6pm-11pm, peak at 6pm
}

// HourWeight returns the relative demand intensity of the clock hour
// containing the given frame (minute of the day).
func HourWeight(frame int) float64 {
	minute := ((frame % 1440) + 1440) % 1440
	return hourWeights[minute/60]
}

// Config parameterises synthetic trace generation.
type Config struct {
	City City
	// Frames is the horizon in minutes (1440 for one day).
	Frames int
	// RequestsPerDay is the target daily volume; City.RequestsPerDay
	// holds the paper's calibration.
	RequestsPerDay int
	// Seats, if positive, is the maximum party size; parties are drawn
	// 1..Seats with decaying probability. Zero means all parties of 1.
	Seats int
	Seed  int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.City.Validate(); err != nil {
		return err
	}
	if c.Frames <= 0 {
		return fmt.Errorf("trace: frames must be positive, got %d", c.Frames)
	}
	if c.RequestsPerDay <= 0 {
		return fmt.Errorf("trace: requests per day must be positive, got %d", c.RequestsPerDay)
	}
	if c.Seats < 0 || c.Seats > 6 {
		return fmt.Errorf("trace: seats must be in [0, 6], got %d", c.Seats)
	}
	return nil
}

// NewYorkConfig returns the calibrated New York generation config over
// the given horizon.
func NewYorkConfig(frames int, seed int64) Config { return calibratedConfig(NewYork(), frames, seed) }

// BostonConfig returns the calibrated Boston generation config.
func BostonConfig(frames int, seed int64) Config { return calibratedConfig(Boston(), frames, seed) }

// calibratedConfig generates city at its calibrated daily volume, with
// parties of up to three.
func calibratedConfig(city City, frames int, seed int64) Config {
	return Config{City: city, Frames: frames, RequestsPerDay: city.RequestsPerDay, Seats: 3, Seed: seed}
}

// Generate produces a deterministic synthetic request trace: arrivals per
// frame are Poisson with the diurnal intensity, pickups follow the
// hotspot mixture, and drop-offs are drawn from the hotspot mixture
// excluding very short hops.
func Generate(cfg Config) ([]fleet.Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := geo.NewSampler(cfg.Seed)
	weightSum := 0.0
	for _, h := range cfg.City.Hotspots {
		weightSum += h.Weight
	}
	avgWeight := 0.0
	for _, w := range hourWeights {
		avgWeight += w
	}
	avgWeight /= 24

	var reqs []fleet.Request
	id := 0
	for frame := 0; frame < cfg.Frames; frame++ {
		// Per-minute Poisson intensity scaled so the day totals
		// RequestsPerDay in expectation.
		lambda := float64(cfg.RequestsPerDay) / 1440 * HourWeight(frame) / avgWeight
		n := poisson(s, lambda)
		for k := 0; k < n; k++ {
			pickup := samplePoint(s, cfg.City, weightSum)
			dropoff := sampleDropoff(s, cfg.City, pickup, weightSum)
			reqs = append(reqs, fleet.Request{
				ID:      id,
				Pickup:  pickup,
				Dropoff: dropoff,
				Frame:   frame,
				Seats:   sampleSeats(s, cfg.Seats),
			})
			id++
		}
	}
	return reqs, nil
}

// Taxis seeds n taxis from the city's 2-D normal distribution.
func Taxis(city City, n int, seed int64) ([]fleet.Taxi, error) {
	if err := city.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: negative taxi count %d", n)
	}
	s := geo.NewSampler(seed)
	taxis := make([]fleet.Taxi, n)
	for i := range taxis {
		taxis[i] = fleet.Taxi{
			ID:     i,
			Pos:    s.NormalIn(city.Bounds.Center(), city.TaxiStdDev, city.Bounds),
			Seats:  4,
			Status: fleet.TaxiIdle,
		}
	}
	return taxis, nil
}

// sampleDropoff draws a destination: usually a local hop with an
// exponentially distributed length around the city's mean trip, sometimes
// a cross-town trip to another hotspot. Tiny sub-500 m hops are
// stretched — nobody hails a taxi to cross the street.
func sampleDropoff(s *geo.Sampler, city City, pickup geo.Point, weightSum float64) geo.Point {
	if s.Float64() < city.CrossTownProb {
		dropoff := samplePoint(s, city, weightSum)
		for tries := 0; geo.Euclid(pickup, dropoff) < 0.5 && tries < 8; tries++ {
			dropoff = samplePoint(s, city, weightSum)
		}
		return dropoff
	}
	length := 0.5 + s.ExpFloat64()*city.LocalTripKm
	if limit := 4 * city.LocalTripKm; length > limit {
		length = limit
	}
	angle := s.Float64() * 2 * math.Pi
	dropoff := geo.Point{
		X: pickup.X + length*math.Cos(angle),
		Y: pickup.Y + length*math.Sin(angle),
	}
	return city.Bounds.Clamp(dropoff)
}

func samplePoint(s *geo.Sampler, city City, weightSum float64) geo.Point {
	pick := s.Float64() * weightSum
	for _, h := range city.Hotspots {
		pick -= h.Weight
		if pick <= 0 {
			return s.NormalIn(h.Center, h.StdDev, city.Bounds)
		}
	}
	last := city.Hotspots[len(city.Hotspots)-1]
	return s.NormalIn(last.Center, last.StdDev, city.Bounds)
}

func sampleSeats(s *geo.Sampler, maxSeats int) int {
	if maxSeats <= 1 {
		return 1
	}
	// Party sizes decay geometrically: 1 is ~4x as likely as 2, etc.
	seats := 1
	for seats < maxSeats && s.Float64() < 0.2 {
		seats++
	}
	return seats
}

// poisson draws a Poisson variate: Knuth's product method for small
// lambda, a clamped normal approximation for large.
func poisson(s *geo.Sampler, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*normSample(s)
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// normSample draws a standard normal via Box–Muller from the sampler's
// uniform stream (geo.Sampler exposes only uniforms and 2-D normals).
func normSample(s *geo.Sampler) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
