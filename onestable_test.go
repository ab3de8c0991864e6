package stabledispatch

import (
	"bytes"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

// TestProposingSideChangesNothing runs each passenger-optimal
// dispatcher beside its taxi-optimal twin (NSTD-P and NSTD-T, STD-P and
// STD-T) over both cities' quick workloads, plain and under
// TestQuickScaleKPIs's fault schedule, and requires byte-identical JSONL
// event streams. Every frame's market has one stable matching
// (DESIGN.md, "One stable matching per frame"), so which side proposes
// cannot change a dispatch, a requeue or anything after it.
func TestProposingSideChangesNothing(t *testing.T) {
	o := exp.QuickOptions()
	packCfg := share.PackConfig{Theta: o.Theta, MaxGroupSize: 3, PairRadius: 2 * o.Theta}
	pairs := []struct {
		name string
		p, t sim.Dispatcher
	}{
		{"NSTD", dispatch.NewNSTDP(), dispatch.NewNSTDT()},
		{"STD", dispatch.NewSTDP(packCfg), dispatch.NewSTDT(packCfg)},
	}
	faults := fault.Config{Seed: 7, BreakdownRate: 0.02, DriverCancelRate: 0.1, PassengerCancelRate: 0.1}
	for _, city := range []trace.City{trace.Boston(), trace.NewYork()} {
		reqs, taxis, err := exp.Workload(city, city.RequestsPerDay, city.Fleet, o)
		if err != nil {
			t.Fatalf("%s workload: %v", city.Name, err)
		}
		for _, faulted := range []bool{false, true} {
			for _, pair := range pairs {
				run := func(d sim.Dispatcher) []byte {
					var events bytes.Buffer
					cfg := sim.Config{
						Params:         o.Params,
						Dispatcher:     d,
						PatienceFrames: o.PatienceMinutes,
						Workers:        o.Workers,
						Events:         sim.NewJSONLSink(&events),
					}
					if faulted {
						sched, err := fault.New(faults)
						if err != nil {
							t.Fatalf("fault.New: %v", err)
						}
						cfg.Faults = sched
					}
					s, err := sim.New(cfg, taxis, reqs)
					if err != nil {
						t.Fatalf("sim.New: %v", err)
					}
					if _, err := s.Run(); err != nil {
						t.Fatalf("%s run: %v", d.Name(), err)
					}
					return events.Bytes()
				}
				name := pair.name
				if faulted {
					name += "+faults"
				}
				p, tt := run(pair.p), run(pair.t)
				if !bytes.Equal(p, tt) {
					t.Errorf("%s %s: %s and %s event streams differ (%d and %d bytes)",
						city.Name, name, pair.p.Name(), pair.t.Name(), len(p), len(tt))
				}
				contested, requeues := streamCoverage(t, p)
				if contested == 0 || faulted != (requeues > 0) {
					t.Errorf("%s %s: %d frames dispatch two or more taxis and %d requests re-queue; the run proves little",
						city.Name, name, contested, requeues)
				}
			}
		}
	}
}

// streamCoverage reads a JSONL event stream and counts the frames that
// dispatch two or more distinct taxis, where a second stable matching
// could exist, and the requeue events.
func streamCoverage(t *testing.T, stream []byte) (contested, requeues int) {
	t.Helper()
	events, err := sim.ReadJSONL(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	taxisByFrame := map[int]map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case sim.EventAssign:
			if taxisByFrame[e.Frame] == nil {
				taxisByFrame[e.Frame] = map[int]bool{}
			}
			taxisByFrame[e.Frame][e.TaxiID] = true
		case sim.EventRequeue:
			requeues++
		}
	}
	for _, taxis := range taxisByFrame {
		if len(taxis) >= 2 {
			contested++
		}
	}
	return contested, requeues
}
