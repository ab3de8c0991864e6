package prof

import (
	"testing"
	"time"
)

// spin burns roughly d of wall-clock without sleeping, so stage spans
// measure real time even at microsecond scale.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestLedgerAttributesStages(t *testing.T) {
	ld := New(Config{})
	ld.BeginFrame(7, nil)
	// The frame's wall-clock is measured around its spans, as
	// Simulator.Step does, so the stage-sum bound holds on a loaded host.
	start := time.Now()
	sp := ld.Begin(StageCostPlane)
	spin(200 * time.Microsecond)
	sp.End()
	sp = ld.Begin(StageMatching)
	spin(400 * time.Microsecond)
	sp.End()
	sp = ld.Begin(StageMatching)
	spin(100 * time.Microsecond)
	sp.End()
	wall := time.Since(start).Nanoseconds()
	sealed := ld.EndFrame(7, wall, 123)
	if sealed.Frame != 7 || sealed.WallNs != wall || sealed.StageCalls[StageMatching] != 2 {
		t.Fatalf("sealed frame = %+v", sealed)
	}

	top := ld.TopFrames()
	if len(top) != 1 {
		t.Fatalf("TopFrames len = %d, want 1", len(top))
	}
	fr := top[0]
	if fr.Frame != 7 || fr.WallNs != wall || fr.Allocs != 123 {
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
	if sum.Frames != 1 || sum.AvgWallNs != wall || sum.AvgAllocs != 123 {
		t.Fatalf("summary = %+v", sum)
	}

	if sealed.StageNs != [NumStages]int64{StageCostPlane: byStage["cost_plane"].Ns, StageMatching: byStage["matching"].Ns} {
		t.Fatalf("sealed stage times %v disagree with the report %+v", sealed.StageNs, byStage)
	}
}

func TestSpansOutsideFrameDropped(t *testing.T) {
	ld := New(Config{})
	sp := ld.Begin(StageMatching)
	spin(50 * time.Microsecond)
	sp.End() // no frame open: dropped
	ld.BeginFrame(1, nil)
	sp = ld.Begin(StageMatching)
	ld.EndFrame(1, 1000, 0)
	ld.BeginFrame(2, nil)
	sp.End() // began in frame 1, which is sealed: dropped
	ld.EndFrame(2, 1000, 0)
	top := ld.TopFrames()
	if len(top) != 2 || top[0].StageSumNs != 0 || top[1].StageSumNs != 0 {
		t.Fatalf("orphan span leaked into a frame: %+v", top)
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
	ld := New(Config{})
	// Walls are a permutation of 1..frames µs (7 is coprime to frames),
	// so the slowest frames are scattered through the run.
	const frames = 3 * TopN
	for i := int64(0); i < frames; i++ {
		wall := (i*7%frames + 1) * 1000
		ld.BeginFrame(i, nil)
		ld.EndFrame(i, wall, 0)
	}
	top := ld.TopFrames()
	if len(top) != TopN {
		t.Fatalf("TopFrames len = %d, want %d", len(top), TopN)
	}
	for i, fr := range top {
		if want := int64(frames-i) * 1000; fr.WallNs != want {
			t.Fatalf("top[%d].WallNs = %d, want %d (top=%+v)", i, fr.WallNs, want, top)
		}
	}
}

// TestOverrunFlaggedAndCounted checks the budget check: a frame over
// the budget is sealed with Overrun set and counted in the Summary, one
// at the budget is not, and a zero budget detects nothing.
func TestOverrunFlaggedAndCounted(t *testing.T) {
	ld := New(Config{BudgetNs: 1000})
	for i, wall := range []int64{999, 1000, 1001, 5000} {
		ld.BeginFrame(int64(i), nil)
		if p := ld.EndFrame(int64(i), wall, 0); p.Overrun != (wall > 1000) {
			t.Errorf("frame %d (wall %dns): Overrun = %v against a 1000ns budget", i, wall, p.Overrun)
		}
	}
	if sum := ld.Summary(); sum.Overruns != 2 || sum.BudgetNs != 1000 || ld.BudgetNs() != 1000 {
		t.Errorf("summary = %+v, want 2 overruns against a 1000ns budget", sum)
	}
	off := New(Config{})
	off.BeginFrame(0, nil)
	if p := off.EndFrame(0, 1<<40, 0); p.Overrun || off.Summary().Overruns != 0 {
		t.Errorf("a zero budget flagged an overrun: %+v", p)
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

func TestRecordingPathDoesNotAllocate(t *testing.T) {
	ld := New(Config{})
	// Fill the top ring so inserts replace in place.
	for i := int64(0); i < TopN; i++ {
		ld.BeginFrame(i, nil)
		ld.EndFrame(i, 1000, 0)
	}
	frame := int64(100)
	allocs := testing.AllocsPerRun(50, func() {
		ld.BeginFrame(frame, nil)
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
