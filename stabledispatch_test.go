package stabledispatch

import (
	"errors"
	"strings"
	"testing"

	"stabledispatch/internal/pref"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// TestFacadeEndToEnd exercises the public API the way the README does:
// generate a workload, run the stable dispatcher, inspect the report.
func TestFacadeEndToEnd(t *testing.T) {
	city := Boston()
	reqs, err := GenerateTrace(BostonConfig(30, 1))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	taxis, err := GenerateTaxis(city, 40, 2)
	if err != nil {
		t.Fatalf("GenerateTaxis: %v", err)
	}
	s, err := NewSimulator(SimConfig{
		Dispatcher: NSTDP(),
		Params:     DefaultParams(),
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Algorithm != "NSTD-P" {
		t.Errorf("Algorithm = %q", rep.Algorithm)
	}
	if rep.ServedCount() == 0 {
		t.Error("nothing served")
	}
}

func TestFacadeMatchingCore(t *testing.T) {
	reqs := []Request{
		{ID: 0, Pickup: Point{X: 1}, Dropoff: Point{X: 5}},
		{ID: 1, Pickup: Point{X: 2}, Dropoff: Point{X: 9}},
	}
	taxis := []Taxi{
		{ID: 0, Pos: Point{}},
		{ID: 1, Pos: Point{X: 3}},
	}
	inst, err := NewInstance(reqs, taxis, EuclidMetric, pref.Unbounded())
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	m := PassengerOptimal(&inst.Market)
	if err := IsStable(&inst.Market, m); err != nil {
		t.Fatalf("IsStable: %v", err)
	}
	all := AllStableMatchings(&inst.Market, 0)
	if len(all) == 0 || !all[0].Equal(m) {
		t.Errorf("AllStableMatchings = %v", all)
	}
	to := TaxiOptimal(&inst.Market)
	if err := IsStable(&inst.Market, to); err != nil {
		t.Fatalf("taxi-optimal unstable: %v", err)
	}
}

func TestFacadeSharing(t *testing.T) {
	reqs := []Request{
		{ID: 0, Pickup: Point{X: 0}, Dropoff: Point{X: 5}},
		{ID: 1, Pickup: Point{X: 0.3}, Dropoff: Point{X: 5.2}},
		{ID: 2, Pickup: Point{X: 15}, Dropoff: Point{X: 18}},
	}
	res, err := PackRequests(reqs, EuclidMetric, DefaultPackConfig())
	if err != nil {
		t.Fatalf("PackRequests: %v", err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("parallel riders not packed")
	}
	plan, err := BestSharedRoute(reqs[:2], EuclidMetric)
	if err != nil {
		t.Fatalf("BestSharedRoute: %v", err)
	}
	if plan.Length <= 0 {
		t.Errorf("plan length = %v", plan.Length)
	}
}

func TestFacadeRoadNetwork(t *testing.T) {
	g, err := NewRoadGrid(RoadGridConfig{Rows: 4, Cols: 4, Spacing: 1})
	if err != nil {
		t.Fatalf("NewRoadGrid: %v", err)
	}
	m := NewRoadMetric(g, 4)
	d := m.Distance(Point{}, Point{X: 3, Y: 3})
	if d < 6-1e-9 {
		t.Errorf("road distance = %v, want >= 6 (grid)", d)
	}

	// The road metric slots straight into the matching market.
	reqs := []Request{{ID: 0, Pickup: Point{X: 1}, Dropoff: Point{X: 3}}}
	taxis := []Taxi{{ID: 0, Pos: Point{}}}
	inst, err := NewInstance(reqs, taxis, m, pref.Unbounded())
	if err != nil {
		t.Fatalf("NewInstance on road metric: %v", err)
	}
	if got := PassengerOptimal(&inst.Market).Size(); got != 1 {
		t.Errorf("matching size = %d, want 1", got)
	}
}

func TestFacadeDispatcherConstructors(t *testing.T) {
	names := map[string]Dispatcher{
		"NSTD-P":     NSTDP(),
		"NSTD-T":     NSTDT(),
		"Greedy":     GreedyDispatcher(),
		"MinCost":    MinCostDispatcher(),
		"Bottleneck": BottleneckDispatcher(),
		"STD-P":      STDP(DefaultPackConfig()),
		"STD-T":      STDT(DefaultPackConfig()),
		"SARP":       SARPDispatcher(DefaultCarpoolConfig()),
		"ILP":        ILPDispatcher(DefaultPackConfig()),
	}
	for want, d := range names {
		if got := d.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestRunFigure(t *testing.T) {
	o := QuickExpOptions()
	o.Frames = 40
	o.VolumeScale = 0.04
	o.TaxiScale = 0.04
	fig, err := RunFigure("fig5", o)
	if err != nil {
		t.Fatalf("RunFigure: %v", err)
	}
	if fig.ID != "fig5" || len(fig.Panels) != 3 {
		t.Errorf("figure = %+v", fig.ID)
	}

	_, err = RunFigure("fig99", o)
	var unknown *UnknownFigureError
	if !errors.As(err, &unknown) || unknown.ID != "fig99" {
		t.Errorf("err = %v, want UnknownFigureError", err)
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Errorf("error text %q lacks figure id", err.Error())
	}
}

func TestFigureIDsStable(t *testing.T) {
	ids := FigureIDs()
	want := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
	if len(ids) != len(want) {
		t.Fatalf("FigureIDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("FigureIDs = %v, want %v", ids, want)
		}
	}
}

func TestFacadeLiveInjection(t *testing.T) {
	taxis, err := GenerateTaxis(Boston(), 5, 3)
	if err != nil {
		t.Fatalf("GenerateTaxis: %v", err)
	}
	s, err := NewSimulator(SimConfig{
		Dispatcher: NSTDP(),
		Params:     DefaultParams(),
	}, taxis, nil)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	// A long profitable trip from the city center, so the default
	// break-even taxi threshold accepts it.
	if err := s.Inject(Request{ID: 1, Pickup: Point{X: 10, Y: 10}, Dropoff: Point{X: 18, Y: 10}}); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if err := s.Inject(Request{ID: 1}); err == nil {
		t.Error("duplicate Inject accepted")
	}
	for i := 0; i < 60 && !s.Done(); i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	snap := s.Snapshot()
	if snap.ServedCount() != 1 {
		t.Errorf("served = %d, want 1", snap.ServedCount())
	}
	if len(s.TaxiViews()) != 5 {
		t.Errorf("TaxiViews = %d", len(s.TaxiViews()))
	}
}

func TestFacadeOutagesAndEvents(t *testing.T) {
	taxis := []Taxi{{ID: 0, Pos: Point{X: 10, Y: 10}}}
	var kinds []string
	s, err := NewSimulator(SimConfig{
		Dispatcher: NSTDP(),
		Params:     pref.Unbounded(),
		SpeedKmH:   60,
		Outages:    []Outage{{TaxiID: 0, From: 0, To: 2}},
		Events: EventSinkFunc(func(e Event) {
			kinds = append(kinds, string(e.Kind))
		}),
	}, taxis, []Request{{ID: 1, Pickup: Point{X: 10.5, Y: 10}, Dropoff: Point{X: 12, Y: 10}}})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() != 1 {
		t.Fatalf("served = %d", rep.ServedCount())
	}
	if rep.Requests[0].AssignFrame < 2 {
		t.Errorf("assigned during outage at frame %d", rep.Requests[0].AssignFrame)
	}
	if len(kinds) == 0 || kinds[0] != "request" {
		t.Errorf("event kinds = %v", kinds)
	}
}

// TestFacadeDecisionTracing runs a traced simulation through the public
// API: traces accumulate for dispatched requests, frames certify stable,
// and CertifyStability flags a hand-crossed matching.
func TestFacadeDecisionTracing(t *testing.T) {
	rec := NewTraceRecorder(0)
	reqs, err := GenerateTrace(BostonConfig(15, 3))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	taxis, err := GenerateTaxis(Boston(), 25, 4)
	if err != nil {
		t.Fatalf("GenerateTaxis: %v", err)
	}
	s, err := NewSimulator(SimConfig{
		Dispatcher: NSTDP(),
		Params:     DefaultParams(),
		Tracer:     rec,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() == 0 {
		t.Fatal("nothing served")
	}

	if len(rec.Snapshot()) == 0 {
		t.Fatal("no traces recorded")
	}
	frames := rec.CertifiedFrames()
	if len(frames) == 0 {
		t.Fatal("no frames certified")
	}
	for _, fr := range frames {
		c, ok := rec.Certificate(fr)
		if !ok {
			t.Fatalf("certificate for frame %d vanished", fr)
		}
		if !c.Stable {
			t.Errorf("frame %d certified unstable: %+v", fr, c.Violations)
		}
	}

	// A deliberately crossed 2×2 matching is flagged with its blocking
	// pair.
	pair := []Request{
		{ID: 10, Pickup: Point{X: 1}, Dropoff: Point{X: 5}},
		{ID: 11, Pickup: Point{X: 8}, Dropoff: Point{X: 12}},
	}
	cabs := []Taxi{
		{ID: 20, Pos: Point{X: 1}},
		{ID: 21, Pos: Point{X: 8}},
	}
	inst, err := NewInstance(pair, cabs, EuclidMetric, pref.Unbounded())
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	cert := CertifyStability(0, &inst.Market, []int{1, 0}, []int{10, 11}, []int{20, 21})
	if cert.Stable || len(cert.Violations) == 0 {
		t.Fatalf("crossed matching certified stable: %+v", cert)
	}
}

// TestFacadeKPISeries runs an instrumented simulation through the public
// API: one sample per frame, queryable by window, all series named.
func TestFacadeKPISeries(t *testing.T) {
	reqs, err := GenerateTrace(BostonConfig(15, 3))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	taxis, err := GenerateTaxis(Boston(), 25, 4)
	if err != nil {
		t.Fatalf("GenerateTaxis: %v", err)
	}
	rec := NewKPIRecorder(KPIRecorderConfig{Capacity: 256})
	s, err := NewSimulator(SimConfig{
		Dispatcher: NSTDP(),
		Params:     DefaultParams(),
		KPI:        rec,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	samples := s.KPISeries()
	if len(samples) != rep.Frames {
		t.Fatalf("%d samples over %d frames", len(samples), rep.Frames)
	}
	last := samples[len(samples)-1]
	if int(last.Served) != rep.ServedCount() {
		t.Errorf("final served %d, report says %d", last.Served, rep.ServedCount())
	}
	for _, name := range tseries.SeriesNames {
		if _, ok := last.Value(name); !ok {
			t.Errorf("series %q not readable from a sample", name)
		}
	}
	for i, smp := range samples {
		if smp.Frame != int64(i) {
			t.Fatalf("KPISeries()[%d] is frame %d, want one sample per frame in order", i, smp.Frame)
		}
	}
}

// TestFacadeStreamHub attaches a telemetry hub to one simulator through
// the public API and proves its lifecycle events reach a subscriber's
// ring.
func TestFacadeStreamHub(t *testing.T) {
	reqs, err := GenerateTrace(BostonConfig(10, 5))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	taxis, err := GenerateTaxis(Boston(), 20, 6)
	if err != nil {
		t.Fatalf("GenerateTaxis: %v", err)
	}

	hub := NewStreamHub()
	if topics := stream.Topics; len(topics) != 5 {
		t.Fatalf("stream.Topics = %v, want 5 topics", topics)
	}
	sub := hub.Subscribe(65536, "events")
	defer sub.Close()

	s, err := NewSimulator(SimConfig{
		Dispatcher: NSTDP(),
		Params:     DefaultParams(),
		Hub:        hub,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	msgs := sub.TakeBatch(nil)
	if len(msgs) == 0 {
		t.Fatalf("no stream messages after %d served rides", rep.ServedCount())
	}
	for _, m := range msgs {
		if m.Topic != stream.Topic("events") {
			t.Fatalf("subscribed to events, got topic %q", m.Topic)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("%d drops on an oversized ring", sub.Dropped())
	}
}
