// Package obs is the metrics substrate for the instances that own
// histograms: a dependency-free, concurrency-safe fixed-bucket latency
// Histogram and a Writer for the Prometheus text format. There is no
// registry: each owner (the admission controller, dispatchd's HTTP
// layer) holds its histograms as fields, and cmd/dispatchd writes every
// /v1/metrics series — the frame and stage histograms from the KPI
// ring's samples among them — at scrape time from the instance that
// counts it.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// latencyBuckets are the histogram bucket upper bounds, in seconds:
// 10 µs to 10 s, a decade-and-halves ladder wide enough for both a
// single Gale–Shapley stage and a whole paper-scale dispatch frame.
var latencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution, safe for concurrent use.
// Observations land in the first bucket whose upper bound is ≥ the
// value; values above every bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64       // finite upper bounds, ascending
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram returns an empty histogram over the latency ladder.
func NewHistogram() *Histogram { return newHistogram(latencyBuckets...) }

// newHistogram builds a histogram over the given ascending bounds.
func newHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the bucket holding the target rank. Values in
// the +Inf bucket are attributed to the highest finite bound, so tail
// quantiles are a lower-bound estimate there. Returns 0 with no
// observations or a NaN q.
func (h *Histogram) Quantile(q float64) float64 {
	// NaN would sail through both clamps below (every comparison with
	// NaN is false), make the target rank NaN, and fall out of the scan
	// to report the top bound as if the data were all slow.
	if math.IsNaN(q) {
		return 0
	}
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			hi := h.bounds[len(h.bounds)-1]
			lo := 0.0
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if lo > hi {
				lo = hi
			}
			frac := 1.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}
