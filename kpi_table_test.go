package stabledispatch

// Quick-scale KPI pin: the paper's headline dispatchers over two
// simulated Boston hours at a tenth of the paper volume must reproduce
// these end-of-run KPIs exactly. Every input is seeded, so any change
// in a value is a change in dispatch behaviour, not noise.

import (
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
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
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 200, o)
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			kpi := tseries.New(tseries.Config{Capacity: 4*o.Frames + 64})
			s, err := sim.New(sim.Config{
				Params:         o.Params,
				Dispatcher:     tc.make(),
				PatienceFrames: o.PatienceMinutes,
				KPI:            kpi,
				Workers:        o.Workers,
			}, taxis, reqs)
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatalf("run: %v", err)
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
		})
	}
}
