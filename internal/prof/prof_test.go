package prof

import (
	"testing"
	"time"
)

// newLedger builds a ledger for the test and closes it afterwards.
func newLedger(t *testing.T, cfg Config) *Ledger {
	t.Helper()
	ld := New(cfg)
	t.Cleanup(ld.Close)
	return ld
}

// spin burns roughly d of wall-clock without sleeping, so stage spans
// measure real time even at microsecond scale.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestLedgerAttributesStages(t *testing.T) {
	ld := newLedger(t, Config{})
	ld.BeginFrame(7)
	sp := ld.Begin(StageCostPlane)
	spin(200 * time.Microsecond)
	sp.End()
	sp = ld.Begin(StageMatching)
	spin(400 * time.Microsecond)
	sp.End()
	sp = ld.Begin(StageMatching)
	spin(100 * time.Microsecond)
	sp.End()
	sealed, _ := ld.EndFrame(7, int64(time.Millisecond), 123)
	if sealed.Frame != 7 || sealed.WallNs != int64(time.Millisecond) || sealed.StageCalls[StageMatching] != 2 {
		t.Fatalf("sealed frame = %+v", sealed)
	}

	top := ld.TopFrames()
	if len(top) != 1 {
		t.Fatalf("TopFrames len = %d, want 1", len(top))
	}
	fr := top[0]
	if fr.Frame != 7 || fr.WallNs != int64(time.Millisecond) || fr.Allocs != 123 {
		t.Fatalf("frame header = %+v", fr)
	}
	if fr.StageSumNs <= 0 || fr.StageSumNs > fr.WallNs {
		t.Fatalf("stage sum %d outside (0, wall=%d]", fr.StageSumNs, fr.WallNs)
	}
	byStage := map[string]StageCost{}
	for _, sc := range fr.Stages {
		byStage[sc.Stage] = sc
	}
	if byStage["cost_plane"].Calls != 1 || byStage["matching"].Calls != 2 {
		t.Fatalf("stage calls = %+v", byStage)
	}
	if byStage["matching"].Ns < byStage["cost_plane"].Ns {
		t.Fatalf("matching %dns should dominate cost_plane %dns",
			byStage["matching"].Ns, byStage["cost_plane"].Ns)
	}

	sum := ld.Summary()
	if sum.Frames != 1 || sum.AvgWallNs != int64(time.Millisecond) || sum.AvgAllocs != 123 {
		t.Fatalf("summary = %+v", sum)
	}

	// The rolling histograms hold one observation per stage per frame:
	// the frame's time in that stage, not one per span.
	frame, stages := ld.StageBreakdown()
	if frame == nil || frame.Count != 1 || frame.TotalSeconds != 1e-3 {
		t.Fatalf("frame distribution = %+v", frame)
	}
	if len(stages) != 2 {
		t.Fatalf("stage distributions = %+v, want cost_plane and matching", stages)
	}
	for _, st := range stages {
		if st.Count != 1 || st.TotalSeconds != float64(byStage[st.Stage].Ns)/1e9 {
			t.Fatalf("stage %s distribution = %+v, want one frame of %dns", st.Stage, st, byStage[st.Stage].Ns)
		}
	}
}

func TestSpansOutsideFrameDropped(t *testing.T) {
	ld := newLedger(t, Config{})
	sp := ld.Begin(StageMatching)
	spin(50 * time.Microsecond)
	sp.End() // no frame open: dropped
	ld.BeginFrame(1)
	ld.EndFrame(1, 1000, 0)
	top := ld.TopFrames()
	if len(top) != 1 || top[0].StageSumNs != 0 {
		t.Fatalf("orphan span leaked into frame: %+v", top)
	}
}

func TestNoLedgerSpanIsFree(t *testing.T) {
	var ld *Ledger
	sp := ld.Begin(StageMatching)
	sp.End() // must not panic
	var zero Span
	zero.End()
}

func TestTopNRingKeepsSlowest(t *testing.T) {
	ld := newLedger(t, Config{TopN: 3})
	for i := int64(0); i < 10; i++ {
		ld.BeginFrame(i)
		ld.EndFrame(i, (i+1)*1000, 0)
	}
	top := ld.TopFrames()
	if len(top) != 3 {
		t.Fatalf("TopFrames len = %d, want 3", len(top))
	}
	wantWall := []int64{10000, 9000, 8000}
	for i, fr := range top {
		if fr.WallNs != wantWall[i] {
			t.Fatalf("top[%d].WallNs = %d, want %d (top=%+v)", i, fr.WallNs, wantWall[i], top)
		}
	}
}

func TestOverrunCaptureRateLimited(t *testing.T) {
	var captures []Capture
	ld := newLedger(t, Config{
		BudgetNs:       1, // every frame overruns
		CaptureFrames:  2,
		CooldownFrames: 1000,
		Capture:        true,
	})
	for i := int64(0); i < 40; i++ {
		ld.BeginFrame(i)
		sp := ld.Begin(StageMatching)
		spin(20 * time.Microsecond)
		sp.End()
		p, c := ld.EndFrame(i, int64(50*time.Microsecond), 1)
		if !p.Overrun {
			t.Fatalf("frame %d did not overrun a 1ns budget", i)
		}
		if c != nil {
			captures = append(captures, *c)
		}
	}
	if len(captures) != 1 {
		t.Fatalf("captures = %d, want exactly 1 (cooldown must rate-limit)", len(captures))
	}
	c := captures[0]
	if c.Trigger.Frame != 0 || !c.Trigger.Overrun {
		t.Fatalf("capture trigger = %+v", c.Trigger)
	}
	if len(c.CPU) == 0 {
		t.Fatalf("capture has no CPU profile")
	}
	if len(c.Heap) == 0 || len(c.HeapPre) == 0 {
		t.Fatalf("capture missing heap pair: pre=%d post=%d", len(c.HeapPre), len(c.Heap))
	}
	sum := ld.Summary()
	if sum.Overruns != 40 || sum.Captures != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Suppressed != 39 {
		t.Fatalf("suppressed = %d, want 39 (every later overrun swallowed)", sum.Suppressed)
	}
}

func TestDominant(t *testing.T) {
	var p FrameProfile
	p.WallNs = 1000
	if stage, share := p.Dominant(); stage != "" || share != 0 {
		t.Fatalf("empty frame dominant = %q/%v", stage, share)
	}
	p.StageNs[StageMatching] = 780
	p.StageNs[StageCostPlane] = 100
	stage, share := p.Dominant()
	if stage != "matching" || share != 0.78 {
		t.Fatalf("dominant = %q/%v, want matching/0.78", stage, share)
	}
}

func TestStageIndexRoundTrip(t *testing.T) {
	for i, name := range StageNames {
		if got := StageIndex(name); got != i {
			t.Fatalf("StageIndex(%q) = %d, want %d", name, got, i)
		}
	}
	if StageIndex("nope") != -1 {
		t.Fatalf("unknown stage should be -1")
	}
}

func TestRecordingPathDoesNotAllocate(t *testing.T) {
	ld := newLedger(t, Config{TopN: 2})
	// Warm the top ring so inserts replace in place.
	for i := int64(0); i < 4; i++ {
		ld.BeginFrame(i)
		ld.EndFrame(i, 1000, 0)
	}
	frame := int64(100)
	allocs := testing.AllocsPerRun(50, func() {
		ld.BeginFrame(frame)
		sp := ld.Begin(StageCostPlane)
		sp.End()
		sp = ld.Begin(StageMatching)
		sp.End()
		ld.EndFrame(frame, 500, 0)
		frame++
	})
	if allocs > 0 {
		t.Fatalf("recording path allocates %.1f objects/frame, want 0", allocs)
	}
}
