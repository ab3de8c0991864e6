package sim

import (
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// TestProfLedgerMatchesTSeries pins the contract between the
// frame-budget ledger and the KPI ring: both views of a frame come from
// one bracket, so a ledger frame's WallNs/Allocs/stage times equal the
// tseries sample's FrameNs/Allocs/StageNs exactly, and the attributed
// stage time never exceeds the frame wall-clock.
func TestProfLedgerMatchesTSeries(t *testing.T) {
	ld := prof.New(prof.Config{})
	rec := tseries.New(tseries.Config{Capacity: 256})
	cfg := simpleConfig(nearestDispatcher{})
	cfg.KPI = rec
	cfg.Ledger = ld
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

	samples := s.KPISeries()
	if len(samples) == 0 {
		t.Fatal("no KPI samples recorded")
	}
	byFrame := make(map[int64]tseries.Sample, len(samples))
	for _, smp := range samples {
		byFrame[smp.Frame] = smp
	}

	// The run is no longer than prof.TopN frames, so the slow-frame
	// ring retains every frame.
	if len(samples) > prof.TopN {
		t.Fatalf("run took %d frames; the ring keeps only %d", len(samples), prof.TopN)
	}
	top := ld.TopFrames()
	if len(top) != len(samples) {
		t.Fatalf("ledger retained %d frames, tseries %d", len(top), len(samples))
	}
	commitSeen := false
	for _, fr := range top {
		smp, ok := byFrame[fr.Frame]
		if !ok {
			t.Fatalf("ledger frame %d missing from tseries", fr.Frame)
		}
		if fr.WallNs != smp.FrameNs {
			t.Errorf("frame %d: ledger wall %dns != tseries frameNs %dns", fr.Frame, fr.WallNs, smp.FrameNs)
		}
		if fr.Allocs != smp.Allocs {
			t.Errorf("frame %d: ledger allocs %d != tseries allocs %d", fr.Frame, fr.Allocs, smp.Allocs)
		}
		if fr.StageSumNs > fr.WallNs {
			t.Errorf("frame %d: stage sum %dns exceeds frame wall %dns", fr.Frame, fr.StageSumNs, fr.WallNs)
		}
		var stageNs [prof.NumStages]int64
		for _, sc := range fr.Stages {
			for i, name := range prof.StageNames {
				if sc.Stage == name {
					stageNs[i] = sc.Ns
				}
			}
			if sc.Stage == "commit" && sc.Calls > 0 {
				commitSeen = true
			}
		}
		if stageNs != smp.StageNs {
			t.Errorf("frame %d: ledger stage times %v != tseries StageNs %v", fr.Frame, stageNs, smp.StageNs)
		}
	}
	if !commitSeen {
		t.Error("no frame attributed commit-stage time despite assignments")
	}
	if sum := ld.Summary(); sum.Frames != int64(len(samples)) {
		t.Errorf("summary frames = %d, want %d", sum.Frames, len(samples))
	}
}

// TestProfLedgerWithoutKPI checks the ledger alone is enough to turn on
// frame accounting, and that its frames reach the hub only inside KPI
// samples: without a KPI recorder nothing is published.
func TestProfLedgerWithoutKPI(t *testing.T) {
	ld := prof.New(prof.Config{})
	hub := stream.NewHub()
	sub := hub.Subscribe(256, stream.Topics...)
	defer sub.Close()
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Ledger = ld
	cfg.Hub = hub
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0}}
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sum := ld.Summary()
	if sum.Frames == 0 {
		t.Fatal("ledger saw no frames without a KPI recorder")
	}
	if sum.AvgWallNs <= 0 {
		t.Fatalf("avg wall = %d, want > 0", sum.AvgWallNs)
	}
	for _, m := range sub.TakeBatch(nil) {
		if m.Topic == stream.TopicKPI {
			t.Fatalf("hub carried a kpi message without a KPI recorder: %s", m.Data)
		}
	}
}
