// Package obs is the metrics substrate for the instances that own
// histograms: a dependency-free, concurrency-safe Registry of atomic
// counters, gauges, and fixed-bucket latency histograms, plus a
// Prometheus-text-format writer. There is no process-wide registry:
// each owner (the admission controller, dispatchd's HTTP layer) holds
// its own, and cmd/dispatchd renders every other /v1/metrics series —
// the frame and stage histograms from the KPI ring's samples among
// them — at scrape time from the instance that counts it.
//
// Metric names follow the Prometheus convention and may carry a fixed
// label set inline, VictoriaMetrics-style:
//
//	reg.GetOrCreateCounter(`http_requests_total{code="200"}`)
//	reg.GetOrCreateHistogram(`dispatch_stage_seconds{stage="matching"}`)
//
// The full string (base name plus optional {labels}) identifies one time
// series; two calls with the same name on one registry return the same
// metric.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any // full name → *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// GetOrCreateCounter returns the counter registered under name,
// creating it on first use. It panics if the name is malformed or
// already registered as a different metric kind — both are programming
// errors at instrumentation sites.
func (r *Registry) GetOrCreateCounter(name string) *Counter {
	return getOrCreate(r, name, func() *Counter { return &Counter{} })
}

// GetOrCreateGauge returns the gauge registered under name, creating it
// on first use. Panics on malformed names and kind mismatches.
func (r *Registry) GetOrCreateGauge(name string) *Gauge {
	return getOrCreate(r, name, func() *Gauge { return &Gauge{} })
}

// GetOrCreateHistogram returns the histogram registered under name,
// creating it with the given bucket upper bounds (DefBuckets when
// omitted) on first use. Buckets must be sorted ascending; the +Inf
// bucket is implicit. Panics on malformed names and kind mismatches.
func (r *Registry) GetOrCreateHistogram(name string, buckets ...float64) *Histogram {
	return getOrCreate(r, name, func() *Histogram { return newHistogram(buckets) })
}

// getOrCreate resolves name to a metric of type T, registering a fresh
// one on first use.
func getOrCreate[T any](r *Registry, name string, make func() *T) *T {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok {
		return mustKind[T](name, m)
	}
	if _, _, err := parseName(name); err != nil {
		panic(fmt.Sprintf("obs: invalid metric name %q: %v", name, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok { // lost the registration race
		return mustKind[T](name, m)
	}
	v := make()
	r.metrics[name] = v
	return v
}

func mustKind[T any](name string, m any) *T {
	v, ok := m.(*T)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return v
}

// Each calls fn for every registered metric in lexicographic name
// order. The metric is one of *Counter, *Gauge, *Histogram.
func (r *Registry) Each(fn func(name string, metric any)) {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	metrics := make(map[string]any, len(names))
	for name := range r.metrics {
		metrics[name] = r.metrics[name]
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		fn(name, metrics[name])
	}
}
