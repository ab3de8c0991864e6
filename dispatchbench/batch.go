package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stats"
	"stabledispatch/internal/trace"
)

// The calibrated New York day of the paper's evaluation: ~46.6k requests
// over 1440 one-minute frames, 700 taxis.
const (
	nycVolume = 46600
	nycTaxis  = 700
	// drainFrames is sim.Config's default drain bound; runDay stops at the
	// same deadline sim.Simulator.Run does.
	drainFrames = 240
	// setupRepeats is how many times a run generates its inputs and builds
	// the simulator at least, so setup_s is a median.
	setupRepeats = 15
)

// replicaSeed is the input seed of replica r of a run's seed, derived as
// internal/exp derives the seeds of its figure replicas.
func replicaSeed(seed int64, r int) int64 { return seed + int64(r)*100003 }

// packCfg is Algorithm 3's packing configuration in the paper's
// evaluation: θ = 5 km, groups of at most 3, pickups paired within 2θ.
var packCfg = share.PackConfig{Theta: 5, MaxGroupSize: 3, PairRadius: 10}

// dayKind is one batch workload: which dispatcher steps the day.
type dayKind struct {
	name          string
	newDispatcher func() sim.Dispatcher
	// pack is Algorithm 3's packing configuration; nil for NSTD-P.
	pack *share.PackConfig
	// replicas is how many distinct input days a run simulates at least.
	// The cost of a day moves by about 10% from seed to seed with how
	// saturated the fleet gets at rush hour, and averaging replicas
	// narrows that spread. An STD-P day costs three NSTD-P days, so it
	// gets one replica, which keeps every run within the time budget.
	replicas int
}

var (
	nstdpDay = dayKind{
		name:          "nyc-day-nstdp",
		newDispatcher: func() sim.Dispatcher { return dispatch.NewNSTDP() },
		replicas:      2,
	}
	stdpDay = dayKind{
		name:          "nyc-day-stdp",
		newDispatcher: func() sim.Dispatcher { return dispatch.NewSTDP(packCfg) },
		pack:          &packCfg,
		replicas:      1,
	}
)

// nycInputs generates the calibrated New York day for a seed, exactly as
// internal/exp generates it for the paper figures.
func nycInputs(seed int64) ([]fleet.Request, []fleet.Taxi, error) {
	o := exp.DefaultOptions()
	o.Seed = seed
	return exp.Workload(trace.NewYork(), nycVolume, nycTaxis, o)
}

// dayConfig is the paper-figure simulation setting: default interest
// parameters and a 60-minute passenger patience.
func dayConfig(d sim.Dispatcher, m geo.Metric) sim.Config {
	o := exp.DefaultOptions()
	return sim.Config{Metric: m, Params: o.Params, Dispatcher: d, PatienceFrames: o.PatienceMinutes}
}

// prepared is one set-up simulator with its timings.
type prepared struct {
	sim         *sim.Simulator
	lastArrival int
	generate    time.Duration // input generation alone
	setup       time.Duration // generation plus sim.New
}

// prepare generates the day's inputs and builds a simulator over them.
func prepare(seed int64, cfg sim.Config) (*prepared, error) {
	start := time.Now()
	reqs, taxis, err := nycInputs(seed)
	if err != nil {
		return nil, err
	}
	generated := time.Since(start)
	s, err := sim.New(cfg, taxis, reqs)
	if err != nil {
		return nil, err
	}
	p := &prepared{sim: s, generate: generated, setup: time.Since(start)}
	for _, r := range reqs {
		p.lastArrival = max(p.lastArrival, r.Frame)
	}
	return p, nil
}

// day is one simulated day.
type day struct {
	// wall and cpu are the time spent stepping and finalising the report,
	// on the wall clock and as process CPU time; time in the per-frame hook
	// (the traced replay) and in reference calls is excluded from both.
	wall, cpu time.Duration
	// norm is cpu rescaled by the reference calls made during the day.
	norm float64
	// rss is the process's mean resident set size over the day, in MiB.
	rss float64
	rep *sim.Report
}

// stepHook runs after every Step with the frame just stepped and the
// Step's wall-clock bounds.
type stepHook func(frame int, start, end time.Time) error

// runDay steps the simulator to the same deadline sim.Simulator.Run uses,
// then lets Run finalise the report. Every refEvery of the day's CPU time
// it makes one reference call, which rescales the day's CPU time to norm,
// and samples the process's resident set size. The previous day's garbage
// is collected first, so every day starts from the same heap.
func runDay(p *prepared, hook stepHook) (*day, error) {
	runtime.GC()
	debug.FreeOSMemory()
	s := p.sim
	deadline := p.lastArrival + drainFrames
	cal, rss := newCalibrator(), &rssMean{}
	d := &day{}
	begin, cpuBegin := time.Now(), cpuTime()
	var hooked, hookedCPU, nextRef time.Duration
	for !s.Done() && s.Frame() <= deadline {
		frame := s.Frame()
		t0 := time.Now()
		if err := s.Step(); err != nil {
			return nil, err
		}
		t1, c1 := time.Now(), cpuTime()
		if hook != nil {
			if err := hook(frame, t0, t1); err != nil {
				return nil, err
			}
		}
		if c1-cpuBegin-hookedCPU >= nextRef {
			cal.sample()
			rss.sample()
			nextRef += refEvery
		}
		hooked += time.Since(t1)
		hookedCPU += cpuTime() - c1
	}
	rep, err := s.Run()
	if err != nil {
		return nil, err
	}
	d.wall = time.Since(begin) - hooked
	d.cpu = cpuTime() - cpuBegin - hookedCPU
	d.norm = d.cpu.Seconds() * cal.scale()
	if d.rss, err = rss.mean(); err != nil {
		return nil, err
	}
	d.rep = rep
	return d, nil
}

// check counts requests that do not reach exactly one terminal state
// (completed, abandoned or cancelled), or that were assigned without
// completing.
func (d *day) check() (bad int) {
	for _, o := range d.rep.Requests {
		terminal := 0
		completed := o.DropoffFrame >= 0
		for _, t := range []bool{completed, o.Abandoned, o.Cancelled} {
			if t {
				terminal++
			}
		}
		if terminal != 1 || o.Served != completed {
			bad++
		}
	}
	return bad
}

// digest identifies the day's outcome: every request's lifecycle record
// and every taxi episode, floats in their exact shortest form.
func (d *day) digest() string {
	h := sha256.New()
	for _, o := range d.rep.Requests {
		fmt.Fprintf(h, "%+v\n", o)
	}
	for _, e := range d.rep.Episodes {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// kpiNames are the metrics kpis fills.
var kpiNames = []string{"served_frac", "kpi.delay_mean_min", "pass_diss_km", "taxi_gain_km"}

// kpis are the paper's Fig. 4–9 quantities over the day. The taxi side is
// reported as the mean net gain, the negated taxi dissatisfaction, which
// is positive on these days.
func (d *day) kpis(m map[string]float64) {
	m["served_frac"] = ratio(float64(d.rep.ServedCount()), float64(len(d.rep.Requests)))
	m["kpi.delay_mean_min"] = stats.Mean(d.rep.DispatchDelays())
	m["pass_diss_km"] = stats.Mean(d.rep.PassengerDissatisfactions())
	m["taxi_gain_km"] = -stats.Mean(d.rep.TaxiDissatisfactions())
}

// replicaDays are the days a run simulated on one replica's inputs.
type replicaDays struct {
	digest string
	kpis   map[string]float64
	norms  []float64
}

// runBatch is the batch closed loop: one caller stepping the simulator over
// whole days, cycling through the run's replicas as long as another day
// fits in the run's time, and at least once through all of them; each day
// runs on a freshly set-up simulator. Figures are the mean over replicas
// of each replica's median day. The process runs on one Go processor, so
// its CPU time is the day's work alone: no idle-time garbage-collection
// workers or spinning schedulers on a second core. Timings are process CPU
// time, rescaled by the reference calls (see calib.go).
func runBatch(kind dayKind) workload {
	return func(opts options) (*result, error) {
		if opts.traced {
			return tracedBatch(kind, opts)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		res := &result{metrics: map[string]float64{}}
		newDay := func(r int) (*prepared, error) {
			return prepare(replicaSeed(opts.seed, r), dayConfig(kind.newDispatcher(), geo.EuclidMetric))
		}
		// Set-up is CPU-bound in this process, so it is rescaled like the
		// days, by reference calls between the set-ups.
		var setups []float64
		setupCal := newCalibrator()
		for i := 0; i < setupRepeats; i++ {
			setupCal.sample()
			p, err := newDay(0)
			if err != nil {
				return nil, err
			}
			setups = append(setups, p.setup.Seconds())
		}
		replicas := kind.replicas
		per := make([]replicaDays, replicas)
		measureStart := time.Now()
		for n := 0; ; n++ {
			r := &per[n%replicas]
			p, err := newDay(n % replicas)
			if err != nil {
				return nil, err
			}
			d, err := runDay(p, nil)
			if err != nil {
				return nil, err
			}
			r.norms = append(r.norms, d.norm)
			res.attempted += len(d.rep.Requests)
			if bad := d.check(); bad > 0 {
				res.failed += bad
				res.problem("day %d: %d requests without exactly one terminal state", n+1, bad)
			}
			if r.digest == "" {
				r.digest = d.digest()
				r.kpis = map[string]float64{}
				d.kpis(r.kpis)
			} else if d.digest() != r.digest {
				res.problem("day %d outcome differs from the replica's first day on the same inputs", n+1)
			}
			// Start another day only if one more fits in the run's time.
			if n+1 >= replicas && time.Since(measureStart)+d.wall+p.setup > opts.seconds {
				break
			}
		}
		m := res.metrics
		m["setup_s"] = median(setups) * setupCal.scale()
		for _, r := range per {
			m["norm_cpu_s_per_day"] += median(r.norms) / float64(replicas)
			for _, k := range kpiNames {
				m[k] += r.kpis[k] / float64(replicas)
			}
		}
		return res, nil
	}
}

// tracedBatch is the traced run of a batch workload: one untraced day for
// reference, then one day with a wrapping Dispatcher and Metric whose
// every dispatched frame is replayed through the public layer calls. It
// keeps every Go processor, unlike the untraced run: the replay doubles
// the day, and an STD-P run on one processor comes close to the time
// limit of a run.
func tracedBatch(kind dayKind, opts options) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	var generate []float64
	var plain *prepared
	for i := 0; i < setupRepeats; i++ {
		p, err := prepare(opts.seed, dayConfig(kind.newDispatcher(), geo.EuclidMetric))
		if err != nil {
			return nil, err
		}
		generate = append(generate, p.generate.Seconds())
		plain = p
	}
	untraced, err := runDay(plain, nil)
	if err != nil {
		return nil, err
	}

	counter := &countingMetric{inner: geo.EuclidMetric}
	td := &tracingDispatcher{inner: kind.newDispatcher()}
	p, err := prepare(opts.seed, dayConfig(td, counter))
	if err != nil {
		return nil, err
	}
	rp := newReplayer(td, geo.EuclidMetric, kind.pack, res)
	traced, err := runDay(p, rp.frame)
	if err != nil {
		return nil, err
	}

	for _, d := range []*day{untraced, traced} {
		res.attempted += len(d.rep.Requests)
		if bad := d.check(); bad > 0 {
			res.failed += bad
			res.problem("%d requests without exactly one terminal state", bad)
		}
	}
	if untraced.digest() != traced.digest() {
		res.problem("traced and untraced outcome digests differ")
	}
	m := res.metrics
	rp.metrics(m, counter.calls())
	untraced.kpis(m)
	m["trace.generate_s"] = median(generate)
	m["sim.day_wall_s"] = untraced.wall.Seconds()
	m["sim.day_cpu_s"] = untraced.cpu.Seconds()
	m["mem_mean_mb"] = untraced.rss
	m["trace.overhead_s"] = traced.wall.Seconds() - untraced.wall.Seconds()
	zero(m, serveLayerMetrics...)
	path := filepath.Join(opts.bin, "spans", fmt.Sprintf("%s-seed%d.jsonl", kind.name, opts.seed))
	if err := rp.tr.write(path); err != nil {
		return nil, err
	}
	return res, nil
}
