package stabledispatch

// Benchmarks regenerating every table and figure of the paper's
// evaluation (one per figure, §VI), plus micro-benchmarks for the core
// algorithms. Figure benches run the shrunken Quick configuration so the
// default `go test -bench=.` pass stays tractable; `cmd/benchfig`
// regenerates the figures at paper scale.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/match"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

func benchOptions() exp.Options {
	o := exp.QuickOptions()
	o.Frames = 60
	o.VolumeScale = 0.05
	o.TaxiScale = 0.05
	return o
}

func benchmarkFigure(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	run := exp.Figures()[id]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := run(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Panels) != 3 {
			b.Fatalf("%s produced %d panels", id, len(fig.Panels))
		}
	}
}

// BenchmarkFig4NonSharingNewYork regenerates Fig. 4: non-sharing CDFs on
// the New York workload.
func BenchmarkFig4NonSharingNewYork(b *testing.B) { benchmarkFigure(b, "fig4") }

// BenchmarkFig5NonSharingBoston regenerates Fig. 5: non-sharing CDFs on
// the Boston workload.
func BenchmarkFig5NonSharingBoston(b *testing.B) { benchmarkFigure(b, "fig5") }

// BenchmarkFig6TaxiCountSweep regenerates Fig. 6: metric averages vs
// fleet size.
func BenchmarkFig6TaxiCountSweep(b *testing.B) { benchmarkFigure(b, "fig6") }

// BenchmarkFig7ClockTimeSweep regenerates Fig. 7: metric averages vs
// clock time.
func BenchmarkFig7ClockTimeSweep(b *testing.B) { benchmarkFigure(b, "fig7") }

// BenchmarkFig8SharingNewYork regenerates Fig. 8: sharing CDFs on the
// New York workload.
func BenchmarkFig8SharingNewYork(b *testing.B) { benchmarkFigure(b, "fig8") }

// BenchmarkFig9SharingBoston regenerates Fig. 9: sharing CDFs on the
// Boston workload.
func BenchmarkFig9SharingBoston(b *testing.B) { benchmarkFigure(b, "fig9") }

// benchWorld builds one dispatch frame's worth of requests and taxis.
func benchWorld(b *testing.B, nReqs, nTaxis int) ([]fleet.Request, []fleet.Taxi) {
	b.Helper()
	city := trace.Boston()
	cfg := trace.Config{City: city, Frames: 60, RequestsPerDay: nReqs * 24, Seats: 3, Seed: 9}
	reqs, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(reqs) > nReqs {
		reqs = reqs[:nReqs]
	}
	taxis, err := trace.Taxis(city, nTaxis, 10)
	if err != nil {
		b.Fatal(err)
	}
	return reqs, taxis
}

// BenchmarkAlgorithm1 measures one passenger-optimal stable matching on
// a frame-sized market (Algorithm 1).
func BenchmarkAlgorithm1(b *testing.B) {
	for _, size := range []struct{ r, t int }{{50, 100}, {100, 400}, {200, 700}} {
		b.Run(fmt.Sprintf("%dx%d", size.r, size.t), func(b *testing.B) {
			reqs, taxis := benchWorld(b, size.r, size.t)
			inst, err := pref.NewInstance(reqs, taxis, geo.EuclidMetric, pref.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := stable.PassengerOptimal(&inst.Market)
				if len(m.ReqPartner) != len(reqs) {
					b.Fatal("bad matching")
				}
			}
		})
	}
}

// BenchmarkAlgorithm2 measures the all-stable-matchings enumeration.
func BenchmarkAlgorithm2(b *testing.B) {
	reqs, taxis := benchWorld(b, 60, 120)
	inst, err := pref.NewInstance(reqs, taxis, geo.EuclidMetric, pref.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := stable.AllStableMatchings(&inst.Market, 64)
		if len(all) == 0 {
			b.Fatal("no matchings")
		}
	}
}

// BenchmarkHungarian measures the MinCost baseline's assignment solver.
func BenchmarkHungarian(b *testing.B) {
	reqs, taxis := benchWorld(b, 100, 400)
	cost := make([][]float64, len(reqs))
	for j, r := range reqs {
		cost[j] = make([]float64, len(taxis))
		for i, t := range taxis {
			cost[j][i] = geo.Euclid(t.Pos, r.Pickup)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := match.MinCost(cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBottleneck measures the bottleneck-matching baseline.
func BenchmarkBottleneck(b *testing.B) {
	reqs, taxis := benchWorld(b, 100, 400)
	cost := make([][]float64, len(reqs))
	for j, r := range reqs {
		cost[j] = make([]float64, len(taxis))
		for i, t := range taxis {
			cost[j][i] = geo.Euclid(t.Pos, r.Pickup)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := match.Bottleneck(cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackRequests measures Algorithm 3's packing stage (feasible
// groups + maximum set packing).
func BenchmarkPackRequests(b *testing.B) {
	reqs, _ := benchWorld(b, 60, 1)
	cfg := share.PackConfig{Theta: 5, MaxGroupSize: 3, PairRadius: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := share.Pack(reqs, geo.EuclidMetric, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedRoute measures the exhaustive three-rider route search.
func BenchmarkSharedRoute(b *testing.B) {
	reqs, _ := benchWorld(b, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := share.BestRoute(reqs, geo.EuclidMetric); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFrames returns a builder of one NSTD-P-sized dispatch frame with
// an all-idle fleet, for measuring the full per-frame dispatch path.
// Every call builds a fresh frame, with fresh Storage: a reused frame
// would keep its idle fleet from the first iteration on.
func benchFrames(b *testing.B, nReqs, nTaxis int) func() *sim.Frame {
	b.Helper()
	reqs, taxis := benchWorld(b, nReqs, nTaxis)
	views := make([]sim.TaxiView, len(taxis))
	for i, t := range taxis {
		views[i] = sim.TaxiView{ID: t.ID, Pos: t.Pos, Seats: t.Seats, Idle: true}
	}
	return func() *sim.Frame {
		return &sim.Frame{Requests: reqs, Taxis: views, Metric: geo.EuclidMetric, Params: pref.DefaultParams()}
	}
}

func benchmarkDispatchFrame(b *testing.B, d sim.Dispatcher, tracer *dtrace.Recorder) {
	frame := benchFrames(b, 100, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frame()
		f.Tracer = tracer
		out, err := d.Dispatch(f)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("no assignments")
		}
	}
}

// BenchmarkDispatchFrame measures an NSTD-P frame with decision tracing
// disabled: the uninstrumented baseline.
func BenchmarkDispatchFrame(b *testing.B) { benchmarkDispatchFrame(b, dispatch.NewNSTDP(), nil) }

// BenchmarkDispatchFrameTraced measures the identical frame with
// decision tracing recording every proposal; compare against
// BenchmarkDispatchFrame for the traced-path cost. The untraced budget
// is ≤5% (BenchmarkDispatchFrame itself exercises that path: each
// instrumentation site is one nil check without a recorder).
func BenchmarkDispatchFrameTraced(b *testing.B) {
	benchmarkDispatchFrame(b, dispatch.NewNSTDP(), dtrace.New(0))
}

// BenchmarkDispatchFrameSTDP measures Algorithm 3 on the identical
// frame, untraced: the request plane, packing, the unit-pruned taxi
// rows, the unit market and the matching.
func BenchmarkDispatchFrameSTDP(b *testing.B) {
	benchmarkDispatchFrame(b, dispatch.NewSTDP(share.DefaultPackConfig()), nil)
}

// BenchmarkDispatchFrameRecorded measures the identical frame with a
// per-frame KPI sample recorded into a tseries ring after each dispatch,
// the way an instrumented Simulator.Step records one; compare against
// BenchmarkDispatchFrame to bound the recorder overhead (budget: ≤5% —
// one mutex acquisition plus a fixed-width struct copy per frame).
func BenchmarkDispatchFrameRecorded(b *testing.B) {
	frame := benchFrames(b, 100, 400)
	d := dispatch.NewNSTDP()
	rec := tseries.New(tseries.Config{Capacity: 1024, Downsample: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.Dispatch(frame())
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("no assignments")
		}
		rec.Record(tseries.Sample{Frame: int64(i), Served: int64(len(out))})
	}
}

// BenchmarkDispatchFrameProfiled measures the identical frame with a
// frame-budget ledger on the frame, the way a profiled Simulator.Step
// runs one: BeginFrame/EndFrame bracket the dispatch and every stage
// span records into the ledger. Compare against
// BenchmarkDispatchFrame to bound the profiler overhead (budget: ≤5% —
// per stage one monotonic clock read and a few array stores, per frame
// one ring slot write, all allocation-free).
func BenchmarkDispatchFrameProfiled(b *testing.B) {
	ld := prof.New(prof.Config{})
	frame := benchFrames(b, 100, 400)
	d := dispatch.NewNSTDP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frame()
		f.Ledger = ld
		ld.BeginFrame(int64(i), f.Metric)
		start := time.Now()
		out, err := d.Dispatch(f)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("no assignments")
		}
		ld.EndFrame(int64(i), time.Since(start).Nanoseconds(), 0)
	}
}

// BenchmarkAblationMaxNet regenerates the taxi-threshold ablation sweep.
func BenchmarkAblationMaxNet(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationMaxNet(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTheta regenerates the sharing detour-bound sweep.
func BenchmarkAblationTheta(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationTheta(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostPlane measures one frame's shared distance-plane build —
// the threshold-pruned §IV-A plane the non-sharing stable dispatchers
// request (pref.Plane) — serially and with the default worker
// pool, and reports the stored share of the T·R cells. Two frame shapes:
// the dense Boston frame (100 requests, 400 taxis, most cells kept, on
// Euclid and on a road grid) and a sparser New York rush-hour frame
// (300 requests, 380 taxis, 15% kept), where the disc grid skips three
// quarters of the T·R disc tests. The road variant rebuilds the
// shortest-path cache each iteration so the pool is measured against
// cold Dijkstra fills, not cache hits; note on a single-core runner the
// parallel rows match the serial ones.
func BenchmarkCostPlane(b *testing.B) {
	reqs, taxis := benchWorld(b, 100, 400)
	nycReqs, nycTaxis := nycFrame(b, 300, 380)
	params := pref.DefaultParams()
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 24, Cols: 24, Spacing: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []struct {
		name string
		n    int
	}{{"serial", 1}, {"parallel", 0}} {
		for _, bc := range []struct {
			name   string
			reqs   []fleet.Request
			taxis  []fleet.Taxi
			metric func() geo.Metric
		}{
			{"euclid", reqs, taxis, func() geo.Metric { return geo.EuclidMetric }},
			{"road", reqs, taxis, func() geo.Metric { return roadnet.NewMetric(g, 256) }},
			{"nyc", nycReqs, nycTaxis, func() geo.Metric { return geo.EuclidMetric }},
		} {
			b.Run(bc.name+"/"+workers.name, func(b *testing.B) {
				b.ReportAllocs()
				var pl *costplane.Plane
				for i := 0; i < b.N; i++ {
					pl = pref.Plane(nil, bc.reqs, bc.taxis, bc.metric(), params, workers.n)
				}
				b.ReportMetric(float64(pl.Entries())/float64(pl.Cells()), "entries/cell")
			})
		}
	}
}

// nycFrame returns a New York rush-hour frame: the first nReqs
// requests of the calibrated day from 08:00, and nTaxis taxis spread
// over the city.
func nycFrame(b *testing.B, nReqs, nTaxis int) ([]fleet.Request, []fleet.Taxi) {
	b.Helper()
	reqs, err := trace.Generate(trace.NewYorkConfig(600, 1))
	if err != nil {
		b.Fatal(err)
	}
	start := sort.Search(len(reqs), func(j int) bool { return reqs[j].Frame >= 480 })
	if len(reqs)-start < nReqs {
		b.Fatalf("trace holds %d requests from 08:00, want %d", len(reqs)-start, nReqs)
	}
	taxis, err := trace.Taxis(trace.NewYork(), nTaxis, 1)
	if err != nil {
		b.Fatal(err)
	}
	return reqs[start : start+nReqs], taxis
}
