package exp

import (
	"fmt"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/stats"
	"stabledispatch/internal/trace"
)

// AblationMaxNet sweeps the taxi-side dummy threshold on the Boston
// workload with NSTD-P: the knob that trades dispatch delay (taxis refuse
// more rides) against taxi dissatisfaction (every accepted ride is
// better). DESIGN.md calls this design choice out; this experiment
// quantifies it.
func AblationMaxNet(o Options) (Figure, error) {
	if err := o.Validate(); err != nil {
		return Figure{}, err
	}
	reqs, taxis, err := paperWorkload(trace.Boston(), o)
	if err != nil {
		return Figure{}, err
	}
	thresholds := []float64{0, 0.5, 1, 2, 4, 8}
	x := make([]float64, len(thresholds))
	var delays, passes, taxisDiss, served []float64
	for i, maxNet := range thresholds {
		x[i] = maxNet
		opt := o
		opt.Params.MaxNet = maxNet
		rep, err := runReport(dispatch.NewNSTDP(), taxis, reqs, opt)
		if err != nil {
			return Figure{}, fmt.Errorf("exp: ablation-maxnet %v: %w", maxNet, err)
		}
		delays = append(delays, stats.Mean(rep.DispatchDelays()))
		passes = append(passes, stats.Mean(rep.PassengerDissatisfactions()))
		taxisDiss = append(taxisDiss, stats.Mean(rep.TaxiDissatisfactions()))
		served = append(served, float64(rep.ServedCount())/float64(len(reqs)))
	}
	one := func(metric string, y []float64) Panel {
		return Panel{
			Metric: metric, XLabel: "taxi threshold MaxNet (km)", X: x,
			Series: []Series{{Name: "NSTD-P", Y: y}},
		}
	}
	return Figure{
		ID:    "ablation-maxnet",
		Title: "Taxi-side dummy threshold sweep, NSTD-P, Boston trace",
		Panels: []Panel{
			one("average dispatch delay (min)", delays),
			one("average passenger dissatisfaction (km)", passes),
			one("average taxi dissatisfaction (km)", taxisDiss),
			one("served fraction", served),
		},
	}, nil
}

// AblationTheta sweeps the sharing detour bound θ with STD-P: small θ
// packs almost nothing (sharing degenerates to non-sharing), large θ
// packs aggressively at the cost of passenger detours.
func AblationTheta(o Options) (Figure, error) {
	if err := o.Validate(); err != nil {
		return Figure{}, err
	}
	reqs, taxis, err := paperWorkload(trace.Boston(), o)
	if err != nil {
		return Figure{}, err
	}
	thetas := []float64{0.5, 1, 2, 5, 10}
	x := make([]float64, len(thetas))
	var passes, taxisDiss, shared []float64
	for i, theta := range thetas {
		x[i] = theta
		rep, err := runReport(dispatch.NewSTDP(packConfig(theta)), taxis, reqs, o)
		if err != nil {
			return Figure{}, fmt.Errorf("exp: ablation-theta %v: %w", theta, err)
		}
		passes = append(passes, stats.Mean(rep.PassengerDissatisfactions()))
		taxisDiss = append(taxisDiss, stats.Mean(rep.TaxiDissatisfactions()))
		shared = append(shared, float64(rep.SharedRideCount()))
	}
	one := func(metric string, y []float64) Panel {
		return Panel{
			Metric: metric, XLabel: "theta (km)", X: x,
			Series: []Series{{Name: "STD-P", Y: y}},
		}
	}
	return Figure{
		ID:    "ablation-theta",
		Title: "Sharing detour bound sweep, STD-P, Boston trace",
		Panels: []Panel{
			one("average passenger dissatisfaction (km)", passes),
			one("average taxi dissatisfaction (km)", taxisDiss),
			one("shared rides", shared),
		},
	}, nil
}

// Extras indexes the ablation experiments beyond the paper's figures.
func Extras() map[string]Runner {
	return map[string]Runner{
		"ablation-maxnet": AblationMaxNet,
		"ablation-theta":  AblationTheta,
	}
}
