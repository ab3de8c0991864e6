package main

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// On a shared virtual machine, how fast the virtual CPUs run drifts by tens
// of percent over seconds to minutes as other tenants come and go, and
// process CPU time drifts with it. So every timed
// phase is interleaved with a fixed reference computation that lives in
// this file (no change to the program moves it), and times are reported
// rescaled to a machine on which one reference call takes refNominal of
// CPU time: measured × refNominal / mean reference cost over the phase.
const (
	// refNominal is the CPU time of one reference call the rescaled
	// figures assume, about its cost on an idle 2.1 GHz Xeon vCPU.
	refNominal = time.Millisecond
	// refEvery is how much of a phase passes between reference calls:
	// measured CPU time in a batch day, so the reference samples the day
	// evenly in CPU time, and wall time while the serving replay posts.
	refEvery = 100 * time.Millisecond
	// refRows and refCols size the reference: a small dispatch frame's
	// distance plane with every row sorted into a preference list, the
	// work pattern of costplane.Build and pref.FromPlane.
	refRows, refCols = 64, 192
)

// calibrator owns the reference inputs and its measured costs.
type calibrator struct {
	rx, ry, cx, cy []float64
	dist           []float64
	order          []int32
	costs          []time.Duration
	sink           float64
}

func newCalibrator() *calibrator {
	// A fixed seed: the reference is the same computation in every run.
	rng := rand.New(rand.NewSource(7))
	c := &calibrator{
		rx: make([]float64, refRows), ry: make([]float64, refRows),
		cx: make([]float64, refCols), cy: make([]float64, refCols),
		dist:  make([]float64, refRows*refCols),
		order: make([]int32, refCols),
	}
	for _, v := range [][]float64{c.rx, c.ry, c.cx, c.cy} {
		for i := range v {
			v[i] = rng.Float64() * 40
		}
	}
	return c
}

// reference runs the reference computation once.
func (c *calibrator) reference() {
	for i := 0; i < refRows; i++ {
		row := c.dist[i*refCols : (i+1)*refCols]
		for j := range row {
			row[j] = math.Hypot(c.rx[i]-c.cx[j], c.ry[i]-c.cy[j])
		}
		for j := range c.order {
			c.order[j] = int32(j)
		}
		slices.SortFunc(c.order, func(a, b int32) int {
			switch {
			case row[a] < row[b]:
				return -1
			case row[a] > row[b]:
				return 1
			}
			return int(a - b)
		})
		c.sink += row[c.order[0]]
	}
}

// sample times one reference call in CPU time and records it.
func (c *calibrator) sample() {
	t0 := cpuTime()
	c.reference()
	c.costs = append(c.costs, cpuTime()-t0)
}

// scale is refNominal over the mean reference cost sampled so far: the
// factor that rescales CPU time measured alongside the samples.
func (c *calibrator) scale() float64 {
	var sum time.Duration
	for _, d := range c.costs {
		sum += d
	}
	if sum == 0 {
		return math.NaN()
	}
	return float64(refNominal) * float64(len(c.costs)) / float64(sum)
}
