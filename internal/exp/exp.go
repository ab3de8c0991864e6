// Package exp is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§VI): Figs. 4–5 (non-sharing CDFs on
// the New York and Boston traces), Fig. 6 (metric averages vs fleet
// size), Fig. 7 (metric averages vs clock time), and Figs. 8–9 (sharing
// CDFs). Each runner prints the same series the paper plots.
package exp

import (
	"fmt"
	"io"

	"stabledispatch/internal/carpool"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stats"
	"stabledispatch/internal/trace"
)

// Options scales an experiment. The zero value is not valid; start from
// DefaultOptions (paper scale: one simulated day at full volume) or
// QuickOptions (a fast, shrunken configuration for tests and CI
// benchmarks).
type Options struct {
	// Frames is the simulated horizon in minutes.
	Frames int
	// VolumeScale multiplies the calibrated requests-per-day.
	VolumeScale float64
	// TaxiScale multiplies the paper's fleet sizes (700 NYC, 200
	// Boston).
	TaxiScale float64
	// Seed drives all generators.
	Seed int64
	// Params are the interest-model coefficients (paper: α = β = 1).
	Params pref.Params
	// Theta is the sharing detour bound (paper: 5 km).
	Theta float64
	// PatienceMinutes is how long simulated passengers wait for a
	// dispatch before giving up. The paper does not model abandonment;
	// a finite patience keeps refused requests from queueing without
	// bound and matches real passenger churn.
	PatienceMinutes int
	// Replicas repeats each experiment with derived seeds and pools
	// the samples (CDF figures) or averages the means (sweep figures).
	// Zero or one means a single run.
	Replicas int
	// Metric measures distances; nil means Euclidean.
	Metric geo.Metric
	// Workers bounds each frame's cost-plane worker pool; ≤ 0 means
	// runtime.GOMAXPROCS(0). Purely a throughput knob: every figure is
	// bit-identical for every value.
	Workers int
}

// DefaultOptions reproduces the paper's setting over one simulated day.
func DefaultOptions() Options {
	return Options{
		Frames:          1440,
		VolumeScale:     1,
		TaxiScale:       1,
		Seed:            42,
		Params:          pref.DefaultParams(),
		Theta:           5,
		PatienceMinutes: 60,
	}
}

// QuickOptions is a shrunken configuration: two simulated hours at a
// tenth of the volume, meant for tests and quick benchmarks.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Frames = 120
	o.VolumeScale = 0.1
	o.TaxiScale = 0.1
	return o
}

// Validate reports option errors.
func (o Options) Validate() error {
	switch {
	case o.Frames <= 0:
		return fmt.Errorf("exp: frames must be positive, got %d", o.Frames)
	case o.VolumeScale <= 0:
		return fmt.Errorf("exp: volume scale must be positive, got %v", o.VolumeScale)
	case o.TaxiScale <= 0:
		return fmt.Errorf("exp: taxi scale must be positive, got %v", o.TaxiScale)
	case o.Theta < 0:
		return fmt.Errorf("exp: theta must be non-negative, got %v", o.Theta)
	case o.PatienceMinutes < 0:
		return fmt.Errorf("exp: patience must be non-negative, got %d", o.PatienceMinutes)
	case o.Replicas < 0:
		return fmt.Errorf("exp: replicas must be non-negative, got %d", o.Replicas)
	}
	return o.Params.Validate()
}

// replicas returns the run count (at least 1).
func (o Options) replicas() int {
	if o.Replicas < 1 {
		return 1
	}
	return o.Replicas
}

// replica derives the options for one replica run: a distinct seed per
// replica, same everything else.
func (o Options) replica(r int) Options {
	out := o
	out.Seed = o.Seed + int64(r)*100003 // large prime stride
	return out
}

func (o Options) metric() geo.Metric {
	if o.Metric == nil {
		return geo.EuclidMetric
	}
	return o.Metric
}

// Series is one plotted line: an algorithm's y-values over shared
// x-coordinates.
type Series struct {
	Name string    `json:"name"`
	Y    []float64 `json:"y"`
}

// Panel is one sub-figure (e.g. Fig. 4(a)): a metric with an x-axis and
// one series per algorithm.
type Panel struct {
	// Metric names the y quantity ("dispatch delay CDF", …).
	Metric string `json:"metric"`
	// XLabel names the x quantity ("minutes", "number of taxis", …).
	XLabel string    `json:"xLabel"`
	X      []float64 `json:"x"`
	Series []Series  `json:"series"`
}

// Figure is the reproduction of one paper figure.
type Figure struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Panels []Panel `json:"panels"`
}

// Render writes the figure as aligned text tables, one per panel.
func (f Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, p := range f.Panels {
		tb := stats.Table{
			Title:   fmt.Sprintf("-- %s --", p.Metric),
			Columns: append([]string{p.XLabel}, seriesNames(p.Series)...),
		}
		for i, x := range p.X {
			row := []string{stats.F(x)}
			for _, s := range p.Series {
				if i < len(s.Y) {
					row = append(row, stats.F(s.Y[i]))
				} else {
					row = append(row, "-")
				}
			}
			tb.AddRow(row...)
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func seriesNames(ss []Series) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

// nonSharingDispatchers returns fresh instances of the five §VI-C
// algorithms, NSTD first.
func nonSharingDispatchers() []sim.Dispatcher {
	return []sim.Dispatcher{
		dispatch.NewNSTDP(),
		dispatch.NewNSTDT(),
		dispatch.NewGreedy(),
		dispatch.NewMinCost(),
		dispatch.NewBottleneck(),
	}
}

// sharingDispatchers returns fresh instances of the five §VI-D
// algorithms.
func sharingDispatchers(theta float64) []sim.Dispatcher {
	packCfg := share.PackConfig{Theta: theta, MaxGroupSize: 3, PairRadius: 2 * theta}
	carpoolCfg := carpool.Config{Theta: theta, MaxAdded: 2 * theta, SearchRadius: 2 * theta}
	return []sim.Dispatcher{
		dispatch.NewSTDP(packCfg),
		dispatch.NewSTDT(packCfg),
		carpool.NewRAII(carpoolCfg),
		carpool.NewSARP(carpoolCfg),
		carpool.NewILP(packCfg),
	}
}

// Workload builds the scaled trace and fleet for a city: the request
// volume and fleet size pass through scaleCount with the options'
// VolumeScale/TaxiScale before generation. Exported so external
// harnesses (the benchmark, the KPI pins) run exactly the workloads the
// experiment runners use.
func Workload(city trace.City, volumePerDay, fleetSize int, o Options) ([]fleet.Request, []fleet.Taxi, error) {
	cfg := trace.Config{
		City:           city,
		Frames:         o.Frames,
		RequestsPerDay: scaleCount(volumePerDay, o.VolumeScale),
		Seats:          3,
		Seed:           o.Seed,
	}
	reqs, err := trace.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	taxis, err := trace.Taxis(city, scaleCount(fleetSize, o.TaxiScale), o.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	return reqs, taxis, nil
}

func scaleCount(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// runReport simulates one dispatcher over the workload.
func runReport(d sim.Dispatcher, taxis []fleet.Taxi, reqs []fleet.Request, o Options) (*sim.Report, error) {
	s, err := sim.New(sim.Config{
		Metric:         o.metric(),
		Params:         o.Params,
		Dispatcher:     d,
		PatienceFrames: o.PatienceMinutes,
		Workers:        o.Workers,
	}, taxis, reqs)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RenderPlots writes the figure as ASCII line charts, one per panel —
// closer to how the paper presents the curves than the tables are.
func (f Figure) RenderPlots(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, p := range f.Panels {
		plot := stats.Plot{
			Title:  fmt.Sprintf("-- %s --", p.Metric),
			XLabel: p.XLabel,
			X:      p.X,
		}
		for _, s := range p.Series {
			plot.Series = append(plot.Series, stats.PlotSeries{Name: s.Name, Y: s.Y})
		}
		if err := plot.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
