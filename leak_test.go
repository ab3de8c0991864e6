package stabledispatch

// Per-simulator attribution pins: every KPI column is a function of the
// one simulator that recorded it. A simulator must not inherit another
// run's degraded frames, cache traffic, or front-door counts, whether
// the other run came before it or is stepping alongside it in the same
// process.

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

// leakWorkload is a short seeded Boston slice shared by the pins.
func leakWorkload(t *testing.T) ([]fleet.Request, []fleet.Taxi) {
	t.Helper()
	o := exp.QuickOptions()
	o.Frames = 20
	o.VolumeScale = 0.05
	reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 200, o)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return reqs, taxis
}

// newLeakSim builds one KPI-recording simulator. Workers is pinned to 1
// so the road cache's hit/miss split is a function of the run alone.
func newLeakSim(t *testing.T, d sim.Dispatcher, m geo.Metric) (*sim.Simulator, *tseries.Recorder) {
	t.Helper()
	reqs, taxis := leakWorkload(t)
	kpi := tseries.New(tseries.Config{Capacity: 1024})
	s, err := sim.New(sim.Config{
		Metric:         m,
		Params:         pref.DefaultParams(),
		Dispatcher:     d,
		PatienceFrames: 30,
		KPI:            kpi,
		Workers:        1,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return s, kpi
}

// stepAll advances every simulator one frame at a time, round-robin,
// until each is done.
func stepAll(t *testing.T, sims ...*sim.Simulator) {
	t.Helper()
	for live := true; live; {
		live = false
		for _, s := range sims {
			if s.Done() {
				continue
			}
			live = true
			if err := s.Step(); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
}

// attributableCSV renders every KPI column except the two that measure
// the host (frame_ns, allocs).
func attributableCSV(t *testing.T, rec *tseries.Recorder) []byte {
	t.Helper()
	var cols []string
	for _, name := range tseries.SeriesNames {
		if name != "frame_ns" && name != "allocs" {
			cols = append(cols, name)
		}
	}
	var b bytes.Buffer
	if err := tseries.WriteCSV(&b, rec.Snapshot(), cols); err != nil {
		t.Fatalf("kpi csv: %v", err)
	}
	return b.Bytes()
}

// roadMetric builds a fresh road metric over the Boston plane with a
// cache small enough to evict.
func roadMetric(t *testing.T) geo.Metric {
	t.Helper()
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 21, Cols: 21, Spacing: 1, Seed: 5})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return roadnet.NewMetric(g, 64)
}

// degradingSTDP wraps STD-P behind a 1 ms deadline it always misses, so
// every dispatched frame degrades to the greedy fallback.
func degradingSTDP() sim.Dispatcher {
	packCfg := share.PackConfig{Theta: 5, MaxGroupSize: 3, PairRadius: 10}
	return dispatch.NewResilient(molasses{dispatch.NewSTDP(packCfg)}, nil, time.Millisecond)
}

func TestDegradedFramesDoNotLeakAcrossRuns(t *testing.T) {
	dirty, dirtyKPI := newLeakSim(t, degradingSTDP(), nil)
	stepAll(t, dirty)
	samples := dirtyKPI.Snapshot()
	if len(samples) == 0 || samples[len(samples)-1].DegradedFrames == 0 {
		t.Fatal("the molasses run degraded no frames; the pin proves nothing")
	}

	clean, cleanKPI := newLeakSim(t, dispatch.NewGreedy(), nil)
	stepAll(t, clean)
	for _, smp := range cleanKPI.Snapshot() {
		if smp.DegradedFrames != 0 {
			t.Fatalf("clean greedy run frame %d reports DegradedFrames=%d inherited from the earlier run",
				smp.Frame, smp.DegradedFrames)
		}
	}
}

func TestInterleavedSimulatorsMatchSoloRuns(t *testing.T) {
	soloRoad, soloRoadKPI := newLeakSim(t, dispatch.NewNSTDP(), roadMetric(t))
	stepAll(t, soloRoad)
	soloDeg, soloDegKPI := newLeakSim(t, degradingSTDP(), nil)
	stepAll(t, soloDeg)

	road, roadKPI := newLeakSim(t, dispatch.NewNSTDP(), roadMetric(t))
	deg, degKPI := newLeakSim(t, degradingSTDP(), nil)
	stepAll(t, road, deg)

	last := soloRoadKPI.Snapshot()
	if n := len(last); n == 0 || last[n-1].CacheHitRate == 0 {
		t.Fatal("road-metric run has a zero cache hit rate; the pin proves nothing")
	}
	if got, want := attributableCSV(t, roadKPI), attributableCSV(t, soloRoadKPI); !bytes.Equal(got, want) {
		t.Errorf("interleaved NSTD-P KPI series differs from its solo run:\n got %s\nwant %s", got, want)
	}
	if got, want := attributableCSV(t, degKPI), attributableCSV(t, soloDegKPI); !bytes.Equal(got, want) {
		t.Errorf("interleaved degrading STD-P KPI series differs from its solo run:\n got %s\nwant %s", got, want)
	}
}

// nestingMetric is a road metric that steps another simulator one frame
// on each batched query while that simulator has frames left, so the
// other simulator's frames, cache traffic included, run inside this
// simulator's stage spans: the overlap two simulators stepping
// concurrently produce, made deterministic.
type nestingMetric struct {
	*roadnet.Metric
	t     *testing.T
	other *sim.Simulator
}

func (m *nestingMetric) DistancesFrom(src geo.Point, dsts []geo.Point) []float64 {
	if m.other != nil && !m.other.Done() {
		if err := m.other.Step(); err != nil {
			m.t.Errorf("nested step: %v", err)
		}
	}
	return m.Metric.DistancesFrom(src, dsts)
}

// TestLedgerCacheColumnsMatchSoloRuns pins the ledger's per-stage
// Dijkstra-cache columns to the frame's own metric: two simulators, each
// on its own road metric, stepped alternately — one inside the other's
// stage spans — attribute exactly the cache hits and misses of their
// solo runs.
func TestLedgerCacheColumnsMatchSoloRuns(t *testing.T) {
	newRun := func(d sim.Dispatcher, m geo.Metric) (*sim.Simulator, *prof.Ledger) {
		reqs, taxis := leakWorkload(t)
		ld := prof.New(prof.Config{})
		s, err := sim.New(sim.Config{
			Metric:         m,
			Params:         pref.DefaultParams(),
			Dispatcher:     d,
			PatienceFrames: 30,
			Workers:        1,
			Ledger:         ld,
		}, taxis, reqs)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		return s, ld
	}
	cacheColumns := func(ld *prof.Ledger) map[string][2]int64 {
		cols := make(map[string][2]int64)
		for _, st := range ld.Summary().Stages {
			cols[st.Stage] = [2]int64{st.CacheHits, st.CacheMisses}
		}
		return cols
	}
	nested := func(other *sim.Simulator) geo.Metric {
		return &nestingMetric{Metric: roadMetric(t).(*roadnet.Metric), t: t, other: other}
	}

	soloOuter, soloOuterLd := newRun(dispatch.NewNSTDP(), nested(nil))
	stepAll(t, soloOuter)
	soloInner, soloInnerLd := newRun(dispatch.NewGreedy(), roadMetric(t))
	stepAll(t, soloInner)

	inner, innerLd := newRun(dispatch.NewGreedy(), roadMetric(t))
	outer, outerLd := newRun(dispatch.NewNSTDP(), nested(inner))
	stepAll(t, outer, inner)

	want := cacheColumns(soloOuterLd)
	if c := want["cost_plane"]; c[0] == 0 || c[1] == 0 {
		t.Fatalf("solo cost_plane cache columns %v: the pin needs both hits and misses", c)
	}
	if got := cacheColumns(outerLd); !maps.Equal(got, want) {
		t.Errorf("outer simulator's per-stage cache [hits misses] = %v, want its solo run's %v", got, want)
	}
	if got, want := cacheColumns(innerLd), cacheColumns(soloInnerLd); !maps.Equal(got, want) {
		t.Errorf("inner simulator's per-stage cache [hits misses] = %v, want its solo run's %v", got, want)
	}
}
