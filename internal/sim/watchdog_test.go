package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// degradingDispatcher notes every frame as degraded, then dispatches
// like nearestDispatcher.
type degradingDispatcher struct{}

func (degradingDispatcher) Name() string { return "degrading" }

func (degradingDispatcher) Dispatch(f *Frame) ([]fleet.Assignment, error) {
	f.NoteDegraded("deadline", "primary missed its deadline")
	return nearestDispatcher{}.Dispatch(f)
}

// watchedRun runs a three-request trace with a KPI ring, a flight
// recorder, and a hub subscribed to every topic.
func watchedRun(t *testing.T, d Dispatcher, eng *slo.Engine) (*tseries.Recorder, string, []stream.Msg) {
	t.Helper()
	dir := t.TempDir()
	rec, err := flightrec.New(flightrec.Config{Dir: dir, CooldownFrames: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hub := stream.NewHub()
	sub := hub.Subscribe(4096)
	defer sub.Close()
	kpi := tseries.New(tseries.Config{Capacity: 64})
	cfg := simpleConfig(d)
	cfg.KPI, cfg.SLO, cfg.Recorder, cfg.Hub = kpi, eng, rec, hub
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 3}, Dropoff: geo.Point{X: 4}, Frame: 1},
		{ID: 3, Pickup: geo.Point{X: 5}, Dropoff: geo.Point{X: 9}, Frame: 2},
	}
	s, err := New(cfg, []fleet.Taxi{{ID: 0}, {ID: 7, Pos: geo.Point{X: 3}}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return kpi, dir, sub.TakeBatch(nil)
}

// onlyBundle reads the manifest of the single bundle under dir.
func onlyBundle(t *testing.T, dir string) flightrec.Manifest {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("bundle dirs = %v, want exactly 1", entries)
	}
	m, err := flightrec.ReadManifest(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func topicCount(msgs []stream.Msg, topic stream.Topic) int {
	n := 0
	for _, m := range msgs {
		if m.Topic == topic {
			n++
		}
	}
	return n
}

// TestSLOBreachForwarded checks the simulator forwards the SLO engine's
// breach to its recorder (one bundle carrying the SLO section) and its
// transitions to its hub.
func TestSLOBreachForwarded(t *testing.T) {
	eng, err := slo.New([]slo.Def{{Name: "idle", Series: "served", Op: slo.OpEQ, FastWindow: 1, SlowWindow: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, dir, msgs := watchedRun(t, nearestDispatcher{}, eng)
	m := onlyBundle(t, dir)
	if m.Trigger.Reason != flightrec.ReasonSLOBreach || !strings.Contains(m.Trigger.Detail, "idle: served == 0") {
		t.Errorf("trigger = %+v, want an slo_breach naming the objective", m.Trigger)
	}
	if m.Sections["slo"] == nil {
		t.Error("manifest lacks the slo status section")
	}
	if topicCount(msgs, stream.TopicSLO) == 0 {
		t.Error("no slo transition reached the hub")
	}
	if topicCount(msgs, stream.TopicKPI) == 0 || topicCount(msgs, stream.TopicEvents) == 0 {
		t.Error("kpi or events topic silent")
	}
}

// TestNoteDegradedForwarded checks a dispatcher's degrade note is
// counted in this simulator's KPI, fires its recorder, and reaches its
// hub as a notice.
func TestNoteDegradedForwarded(t *testing.T) {
	kpi, dir, msgs := watchedRun(t, degradingDispatcher{}, nil)
	samples := kpi.Snapshot()
	if last := samples[len(samples)-1]; last.DegradedFrames != 3 {
		t.Errorf("DegradedFrames = %d, want 3 (one per dispatched frame)", last.DegradedFrames)
	}
	if m := onlyBundle(t, dir); m.Trigger.Reason != flightrec.ReasonDegraded {
		t.Errorf("trigger reason = %q, want degraded_frame", m.Trigger.Reason)
	}
	if got := topicCount(msgs, stream.TopicNotices); got != 3 {
		t.Errorf("notices = %d, want 3 degrade notices", got)
	}
}
