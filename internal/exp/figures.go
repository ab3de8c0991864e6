package exp

import (
	"fmt"

	"stabledispatch/internal/sim"
	"stabledispatch/internal/stats"
	"stabledispatch/internal/trace"
)

// Fig4 reproduces Fig. 4: CDFs of dispatch delay, passenger
// dissatisfaction, and taxi dissatisfaction for non-sharing dispatch on
// the New York trace (700 taxis).
func Fig4(o Options) (Figure, error) {
	return cdfFigure("fig4", "Non-sharing taxi dispatches, New York trace",
		trace.NewYork(), nonSharingDispatchers, o)
}

// Fig5 reproduces Fig. 5: the same CDFs on the Boston trace (200 taxis).
func Fig5(o Options) (Figure, error) {
	return cdfFigure("fig5", "Non-sharing taxi dispatches, Boston trace",
		trace.Boston(), nonSharingDispatchers, o)
}

// Fig8 reproduces Fig. 8: sharing-dispatch CDFs on the New York trace.
func Fig8(o Options) (Figure, error) {
	return cdfFigure("fig8", "Sharing taxi dispatches, New York trace",
		trace.NewYork(), func() []sim.Dispatcher { return sharingDispatchers(o.Theta) }, o)
}

// Fig9 reproduces Fig. 9: sharing-dispatch CDFs on the Boston trace.
func Fig9(o Options) (Figure, error) {
	return cdfFigure("fig9", "Sharing taxi dispatches, Boston trace",
		trace.Boston(), func() []sim.Dispatcher { return sharingDispatchers(o.Theta) }, o)
}

// cdfFigure runs every dispatcher over one workload and evaluates the
// three metric CDFs on shared grids.
func cdfFigure(id, title string, city trace.City,
	dispatchers func() []sim.Dispatcher, o Options) (Figure, error) {
	if err := o.Validate(); err != nil {
		return Figure{}, err
	}
	// One pooled sample set per algorithm, across replicas. Dispatcher
	// order is fixed, so index i is the same algorithm in every
	// replica.
	var names []string
	for _, d := range dispatchers() {
		names = append(names, d.Name())
	}
	pools := make([]*samplePool, len(names))
	for i := range pools {
		pools[i] = &samplePool{}
	}
	for rep := 0; rep < o.replicas(); rep++ {
		ro := o.replica(rep)
		reqs, taxis, err := paperWorkload(city, ro)
		if err != nil {
			return Figure{}, err
		}
		ds := dispatchers()
		for i, d := range ds {
			report, err := runReport(d, taxis, reqs, ro)
			if err != nil {
				return Figure{}, fmt.Errorf("exp: %s: %w", id, err)
			}
			pools[i].add(report)
		}
	}

	delayX := stats.Linspace(0, 50, 26)
	passX := poolGrid(pools, func(p *samplePool) []float64 { return p.passenger })
	taxiX := poolGrid(pools, func(p *samplePool) []float64 { return p.taxi })

	fig := Figure{ID: id, Title: title}
	fig.Panels = append(fig.Panels,
		poolPanel("dispatch delay CDF", "minutes", delayX, names, pools,
			func(p *samplePool) []float64 { return p.delays }),
		poolPanel("passenger dissatisfaction CDF", "km", passX, names, pools,
			func(p *samplePool) []float64 { return p.passenger }),
		poolPanel("taxi dissatisfaction CDF", "km", taxiX, names, pools,
			func(p *samplePool) []float64 { return p.taxi }),
	)
	return fig, nil
}

// samplePool accumulates one algorithm's metric samples across replicas.
type samplePool struct {
	delays    []float64
	passenger []float64
	taxi      []float64
}

func (p *samplePool) add(rep *sim.Report) {
	p.delays = append(p.delays, rep.DispatchDelays()...)
	p.passenger = append(p.passenger, rep.PassengerDissatisfactions()...)
	p.taxi = append(p.taxi, rep.TaxiDissatisfactions()...)
}

func poolGrid(pools []*samplePool, values func(*samplePool) []float64) []float64 {
	lo, hi := 0.0, 1.0
	first := true
	for _, p := range pools {
		for _, v := range values(p) {
			if first {
				lo, hi = v, v
				first = false
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	return stats.Linspace(lo, hi, 21)
}

func poolPanel(metric, xlabel string, x []float64, names []string, pools []*samplePool,
	values func(*samplePool) []float64) Panel {
	p := Panel{Metric: metric, XLabel: xlabel, X: x}
	for i, pool := range pools {
		p.Series = append(p.Series, Series{
			Name: names[i],
			Y:    stats.CDF(values(pool), x),
		})
	}
	return p
}

// Fig6 reproduces Fig. 6: average metrics on the Boston trace as the
// fleet is swept from 100 to 300 taxis.
func Fig6(o Options) (Figure, error) {
	if err := o.Validate(); err != nil {
		return Figure{}, err
	}
	counts := []int{100, 150, 200, 250, 300}
	x := make([]float64, len(counts))
	for i, c := range counts {
		x[i] = float64(scaleCount(c, o.TaxiScale))
	}

	boston := trace.Boston()
	algs := nonSharingDispatchers()
	delays := make([][]float64, len(algs))
	passes := make([][]float64, len(algs))
	taxisDiss := make([][]float64, len(algs))

	for _, count := range counts {
		// Average each metric mean across replicas.
		sumDelay := make([]float64, len(algs))
		sumPass := make([]float64, len(algs))
		sumTaxi := make([]float64, len(algs))
		for rep := 0; rep < o.replicas(); rep++ {
			ro := o.replica(rep)
			reqs, taxis, err := Workload(boston, boston.RequestsPerDay, count, ro)
			if err != nil {
				return Figure{}, err
			}
			for ai := range algs {
				report, err := runReport(nonSharingDispatchers()[ai], taxis, reqs, ro)
				if err != nil {
					return Figure{}, fmt.Errorf("exp: fig6 count %d: %w", count, err)
				}
				sumDelay[ai] += stats.Mean(report.DispatchDelays())
				sumPass[ai] += stats.Mean(report.PassengerDissatisfactions())
				sumTaxi[ai] += stats.Mean(report.TaxiDissatisfactions())
			}
		}
		n := float64(o.replicas())
		for ai := range algs {
			delays[ai] = append(delays[ai], sumDelay[ai]/n)
			passes[ai] = append(passes[ai], sumPass[ai]/n)
			taxisDiss[ai] = append(taxisDiss[ai], sumTaxi[ai]/n)
		}
	}

	fig := Figure{ID: "fig6", Title: "Non-sharing dispatches, Boston trace, fleet-size sweep"}
	fig.Panels = append(fig.Panels,
		meanPanel("average dispatch delay", "number of taxis", x, algs, delays),
		meanPanel("average passenger dissatisfaction", "number of taxis", x, algs, passes),
		meanPanel("average taxi dissatisfaction", "number of taxis", x, algs, taxisDiss),
	)
	return fig, nil
}

// Fig7 reproduces Fig. 7: average metrics on the Boston trace bucketed
// by clock time (3-hour buckets from 12am).
func Fig7(o Options) (Figure, error) {
	if err := o.Validate(); err != nil {
		return Figure{}, err
	}
	const bucketHours = 3
	buckets := 24 / bucketHours
	x := make([]float64, buckets)
	for i := range x {
		x[i] = float64(i * bucketHours)
	}

	algs := nonSharingDispatchers()
	delays := make([][]float64, len(algs))
	passes := make([][]float64, len(algs))
	taxisDiss := make([][]float64, len(algs))
	for ai := range algs {
		// Pool per-bucket samples across replicas, then average.
		delayBuckets := make([][]float64, buckets)
		passBuckets := make([][]float64, buckets)
		taxiBuckets := make([][]float64, buckets)
		for rep := 0; rep < o.replicas(); rep++ {
			ro := o.replica(rep)
			reqs, taxis, err := paperWorkload(trace.Boston(), ro)
			if err != nil {
				return Figure{}, err
			}
			report, err := runReport(nonSharingDispatchers()[ai], taxis, reqs, ro)
			if err != nil {
				return Figure{}, fmt.Errorf("exp: fig7: %w", err)
			}
			for _, out := range report.Requests {
				if !out.Served {
					continue
				}
				b := hourBucket(out.ArrivalFrame, bucketHours)
				if d, ok := out.DispatchDelay(); ok {
					delayBuckets[b] = append(delayBuckets[b], d)
				}
				passBuckets[b] = append(passBuckets[b], out.PassengerDiss)
			}
			for _, a := range report.Assignments {
				b := hourBucket(a.Frame, bucketHours)
				taxiBuckets[b] = append(taxiBuckets[b], a.Dissatisfaction)
			}
		}
		for b := 0; b < buckets; b++ {
			delays[ai] = append(delays[ai], stats.Mean(delayBuckets[b]))
			passes[ai] = append(passes[ai], stats.Mean(passBuckets[b]))
			taxisDiss[ai] = append(taxisDiss[ai], stats.Mean(taxiBuckets[b]))
		}
	}

	fig := Figure{ID: "fig7", Title: "Non-sharing dispatches, Boston trace, by clock time"}
	fig.Panels = append(fig.Panels,
		meanPanel("average dispatch delay", "clock hour", x, algs, delays),
		meanPanel("average passenger dissatisfaction", "clock hour", x, algs, passes),
		meanPanel("average taxi dissatisfaction", "clock hour", x, algs, taxisDiss),
	)
	return fig, nil
}

func hourBucket(frame, bucketHours int) int {
	minute := ((frame % 1440) + 1440) % 1440
	return minute / 60 / bucketHours
}

func meanPanel(metric, xlabel string, x []float64, algs []sim.Dispatcher, ys [][]float64) Panel {
	p := Panel{Metric: metric, XLabel: xlabel, X: x}
	for i, d := range algs {
		p.Series = append(p.Series, Series{Name: d.Name(), Y: ys[i]})
	}
	return p
}

// Runner produces one figure.
type Runner func(Options) (Figure, error)

// Figures indexes every reproduction by its paper figure ID.
func Figures() map[string]Runner {
	return map[string]Runner{
		"fig4": Fig4,
		"fig5": Fig5,
		"fig6": Fig6,
		"fig7": Fig7,
		"fig8": Fig8,
		"fig9": Fig9,
	}
}

// FigureIDs returns the figure IDs in presentation order.
func FigureIDs() []string {
	return []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
}
