package stabledispatch

// Quick-scale KPI pin: the paper's headline dispatchers, the insertion
// baseline SARP (the only reader of busy taxis' routes) and the
// ILP baseline (Algorithm 3's packing with a min-cost assignment) over two
// simulated Boston hours at a tenth of the paper volume must reproduce
// these end-of-run KPIs exactly, as must NSTD-P under seeded faults.
// Every input is seeded, so any change in a value is a change in
// dispatch behaviour, not noise.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"stabledispatch/internal/carpool"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

func TestQuickScaleKPIs(t *testing.T) {
	o := exp.QuickOptions()
	packCfg := share.PackConfig{Theta: o.Theta, MaxGroupSize: 3, PairRadius: 2 * o.Theta}
	cases := []struct {
		algo      string
		make      func() sim.Dispatcher
		served    int64
		delayMean float64
		delayP95  float64
		passDiss  float64
		taxiDiss  float64
	}{
		{"NSTD-P", func() sim.Dispatcher { return dispatch.NewNSTDP() }, 62, 0.016129032258064516, 0, 1.2753322832902854, -0.6401274483997326},
		{"NSTD-T", func() sim.Dispatcher { return dispatch.NewNSTDT() }, 62, 0.016129032258064516, 0, 1.2753322832902854, -0.6401274483997326},
		{"STD-P", func() sim.Dispatcher { return dispatch.NewSTDP(packCfg) }, 62, 0.3709677419354839, 0, 1.223253422272735, -0.8682186663500442},
		{"Greedy", func() sim.Dispatcher { return dispatch.NewGreedy() }, 62, 0, 0, 1.338192073948082, -0.5772676577419357},
		{"SARP", func() sim.Dispatcher { return carpool.NewSARP(carpool.DefaultConfig()) }, 62, 0, 0, 1.7097137938133697, -1.1903204102245741},
		{"ILP", func() sim.Dispatcher { return carpool.NewILP(packCfg) }, 62, 0, 0, 1.3022341072178312, -0.7866052919067777},
		{"NSTD-P+faults", func() sim.Dispatcher { return dispatch.NewNSTDP() }, 57, 0.875, 4, 1.2677785630848795, -0.7051091251503289},
	}
	// Rows named here also run under a seeded fault schedule and pin the
	// SHA-256 of their JSONL event stream, so breakdown requeue/rescue
	// order and cancellation unwinding cannot drift.
	faulted := map[string]struct {
		faults    fault.Config
		eventsSHA string
	}{
		"NSTD-P+faults": {fault.Config{Seed: 7, BreakdownRate: 0.02, DriverCancelRate: 0.1, PassengerCancelRate: 0.1}, "f484714925c4f8505df7a5009a07745f7ee223f9d358b18e030deba100fc8e4e"},
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 200, o)
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			kpi := tseries.New(tseries.Config{Capacity: 4*o.Frames + 64})
			cfg := sim.Config{
				Params:         o.Params,
				Dispatcher:     tc.make(),
				PatienceFrames: o.PatienceMinutes,
				KPI:            kpi,
				Workers:        o.Workers,
			}
			var events bytes.Buffer
			pin, isFaulted := faulted[tc.algo]
			if isFaulted {
				sched, err := fault.New(pin.faults)
				if err != nil {
					t.Fatalf("fault.New: %v", err)
				}
				cfg.Faults = sched
				cfg.Events = sim.NewJSONLSink(&events)
			}
			s, err := sim.New(cfg, taxis, reqs)
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if isFaulted {
				sum := sha256.Sum256(events.Bytes())
				if got := hex.EncodeToString(sum[:]); got != pin.eventsSHA {
					t.Errorf("event stream SHA-256 = %s, want %s", got, pin.eventsSHA)
				}
			}
			samples := kpi.Snapshot()
			if len(samples) == 0 {
				t.Fatal("no KPI samples recorded")
			}
			last := samples[len(samples)-1]
			if last.Served != tc.served || last.DelayMean != tc.delayMean || last.DelayP95 != tc.delayP95 ||
				last.PassDissMean != tc.passDiss || last.TaxiDissMean != tc.taxiDiss {
				t.Errorf("KPIs = served %d, delay mean %v p95 %v, pass diss %v, taxi diss %v; want %d, %v, %v, %v, %v",
					last.Served, last.DelayMean, last.DelayP95, last.PassDissMean, last.TaxiDissMean,
					tc.served, tc.delayMean, tc.delayP95, tc.passDiss, tc.taxiDiss)
			}
			// The report and the KPI ring count shared rides from the
			// same decision records.
			if got := int64(rep.SharedRideCount()); last.SharedRides != got {
				t.Errorf("KPI shared_rides = %d, report SharedRideCount = %d", last.SharedRides, got)
			}
		})
	}
}
