package stabledispatch

// End-to-end watchdog pipeline: a pathologically slow primary
// dispatcher forces the Resilient wrapper to degrade every frame, the
// degraded frames show up in the KPI stream, the SLO engine transitions
// to breach, and the flight recorder writes exactly one rate-limited
// bundle whose manifest names the first trigger.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/slo"
)

// molasses stalls past any sane frame deadline before delegating, so a
// 1 ms Resilient deadline degrades every dispatched frame.
type molasses struct{ inner Dispatcher }

func (d molasses) Name() string { return "molasses" }

func (d molasses) Dispatch(f *Frame) ([]Assignment, error) {
	time.Sleep(25 * time.Millisecond)
	return d.inner.Dispatch(f)
}

func TestWatchdogDegradeBreachBundle(t *testing.T) {
	dir := t.TempDir()
	// A cooldown longer than the run: only the first trigger bundles,
	// everything after is suppressed.
	rec, err := NewFlightRecorder(FlightRecorderConfig{
		Dir:            dir,
		CooldownFrames: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	sloPath := filepath.Join(dir, "watchdog.slo")
	// clear is huge so the breach state survives to the end of the run.
	sloText := "# every degraded frame is a violation\n" +
		"no_degrades: degraded_frames == 0 fast=2 slow=4 clear=100000\n"
	if err := os.WriteFile(sloPath, []byte(sloText), 0o600); err != nil {
		t.Fatal(err)
	}
	defs, err := slo.ParseFile(sloPath)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.New(defs)
	if err != nil {
		t.Fatal(err)
	}

	city := Boston()
	reqs, err := GenerateTrace(BostonConfig(15, 3))
	if err != nil {
		t.Fatal(err)
	}
	taxis, err := GenerateTaxis(city, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	kpi := NewKPIRecorder(KPIRecorderConfig{Capacity: 256})
	s, err := NewSimulator(SimConfig{
		Dispatcher: dispatch.NewResilient(molasses{GreedyDispatcher()}, nil, time.Millisecond),
		Params:     DefaultParams(),
		KPI:        kpi,
		SLO:        eng,
		Recorder:   rec,
	}, taxis, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// Degraded frames reached the KPI stream.
	samples := kpi.Snapshot()
	if len(samples) == 0 {
		t.Fatal("no KPI samples recorded")
	}
	if last := samples[len(samples)-1]; last.DegradedFrames == 0 {
		t.Errorf("final sample DegradedFrames = 0, want > 0")
	}

	// The SLO transitioned to breach and stayed there (clear is huge).
	if _, ever := eng.Breached(); !ever {
		t.Errorf("engine never breached: %s", eng.Report())
	}
	sts := eng.Status()
	if len(sts) != 1 || sts[0].Name != "no_degrades" {
		t.Fatalf("Status = %+v", sts)
	}
	if sts[0].State != "breach" || sts[0].Breaches < 1 {
		t.Errorf("objective state = %q (breaches %d), want breach ≥ 1: %s",
			sts[0].State, sts[0].Breaches, eng.Report())
	}

	// Exactly one bundle: the first degrade triggers, the cooldown
	// suppresses every later degrade and the SLO breach.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			bundles = append(bundles, e.Name())
		}
	}
	if len(bundles) != 1 {
		t.Fatalf("bundle dirs = %v, want exactly 1", bundles)
	}
	if rec.Suppressed() == 0 {
		t.Error("no triggers were suppressed; cooldown is not rate-limiting")
	}

	// The manifest names the first trigger: a degraded frame.
	m, err := flightrec.ReadManifest(filepath.Join(dir, bundles[0]))
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Trigger.Reason) != "degraded_frame" {
		t.Errorf("manifest trigger reason = %q, want degraded_frame", m.Trigger.Reason)
	}
	if !strings.Contains(m.Trigger.Detail, "degraded to") {
		t.Errorf("manifest trigger detail %q does not describe the degrade", m.Trigger.Detail)
	}
}
