package main

import (
	"testing"
	"time"

	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

// shortDay prepares the first two hours of the calibrated New York day at
// full volume and fleet size: the benchmark's inputs, cut short so a test
// runs in about a second.
func shortDay(t *testing.T, d sim.Dispatcher, m geo.Metric) *prepared {
	t.Helper()
	o := exp.DefaultOptions()
	o.Frames = 120
	reqs, taxis, err := exp.Workload(trace.NewYork(), nycVolume, nycTaxis, o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(dayConfig(d, m), taxis, reqs)
	if err != nil {
		t.Fatal(err)
	}
	p := &prepared{sim: s}
	for _, r := range reqs {
		p.lastArrival = max(p.lastArrival, r.Frame)
	}
	return p
}

// doubledDispatcher doubles the cost of the dispatch stage: after each
// Dispatch it keeps the CPU busy for as long again.
type doubledDispatcher struct{ inner sim.Dispatcher }

func (d doubledDispatcher) Name() string { return d.inner.Name() }

func (d doubledDispatcher) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	start := time.Now()
	out, err := d.inner.Dispatch(f)
	spent := time.Since(start)
	for time.Since(start) < 2*spent {
	}
	return out, err
}

// metric returns the named metric of BENCHMARK.json.
func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// regressed applies the comparison rule of BENCHMARK.json: the change's
// value is worse than the parent's by more than bound, as a share of the
// parent's.
func regressed(parent, change, bound float64, better string) bool {
	if better == "higher" {
		return change < parent*(1-bound)
	}
	return change > parent*(1+bound)
}

// medianCPU runs the short day several times and returns the median of
// the benchmark's rescaled CPU seconds per day.
func medianCPU(t *testing.T, newDispatcher func() sim.Dispatcher) float64 {
	t.Helper()
	var cpus []float64
	for i := 0; i < 3; i++ {
		d, err := runDay(shortDay(t, newDispatcher(), geo.EuclidMetric), nil)
		if err != nil {
			t.Fatal(err)
		}
		cpus = append(cpus, d.norm)
	}
	return median(cpus)
}

// TestInjectedSlowdownFailsGate doubles one stage, Dispatch, through a
// wrapping Dispatcher and checks that norm_cpu_s_per_day worsens past the bound
// BENCHMARK.json fixes for it, so such a change fails the gate.
func TestInjectedSlowdownFailsGate(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := spec.metric("norm_cpu_s_per_day")
	if !ok {
		t.Fatal("BENCHMARK.json has no norm_cpu_s_per_day")
	}
	parent := medianCPU(t, nstdpDay.newDispatcher)
	change := medianCPU(t, func() sim.Dispatcher { return doubledDispatcher{nstdpDay.newDispatcher()} })
	if !regressed(parent, change, m.Bound, m.Better) {
		t.Fatalf("doubling Dispatch moved norm_cpu_s_per_day %.3f → %.3f s, within the %.0f%% bound", parent, change, 100*m.Bound)
	}
	t.Logf("doubling Dispatch: norm_cpu_s_per_day %.3f → %.3f s (bound %.0f%%)", parent, change, 100*m.Bound)
}

// TestReplayMatchesDispatcher runs the traced day on the short inputs for
// both batch workloads: every replayed frame must equal the dispatcher's
// assignments, every replayed matching must be stable, and the traced
// outcome must equal the untraced one.
func TestReplayMatchesDispatcher(t *testing.T) {
	for _, kind := range []dayKind{nstdpDay, stdpDay} {
		t.Run(kind.name, func(t *testing.T) {
			plain, err := runDay(shortDay(t, kind.newDispatcher(), geo.EuclidMetric), nil)
			if err != nil {
				t.Fatal(err)
			}
			res := &result{metrics: map[string]float64{}}
			td := &tracingDispatcher{inner: kind.newDispatcher()}
			counter := &countingMetric{inner: geo.EuclidMetric}
			p := shortDay(t, td, counter)
			rp := newReplayer(td, geo.EuclidMetric, kind.pack, res)
			traced, err := runDay(p, rp.frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.problems) > 0 || res.failed > 0 {
				t.Fatalf("replay: %d failed: %v", res.failed, res.problems)
			}
			if plain.digest() != traced.digest() {
				t.Fatal("traced and untraced outcomes differ")
			}
			if bad := traced.check(); bad > 0 {
				t.Fatalf("%d requests without exactly one terminal state", bad)
			}
			rp.metrics(res.metrics, counter.calls())
			if c := res.metrics["trace.dispatch_coverage"]; c < 0.5 {
				t.Errorf("replayed layers cover %.2f of Dispatch", c)
			}
			if rp.dispatched == 0 || counter.calls() == 0 {
				t.Errorf("traced day dispatched %d frames with %d distance calls", rp.dispatched, counter.calls())
			}
		})
	}
}
