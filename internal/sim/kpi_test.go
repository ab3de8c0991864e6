package sim

import (
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/tseries"
)

// TestKPISeriesRecordsEveryFrame runs a small scripted simulation with a
// recorder attached and checks the per-frame trajectory: one sample per
// frame, monotone frame numbers, served/queued transitions at the frames
// the script dictates, and positive runtime series.
func TestKPISeriesRecordsEveryFrame(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 3}, Dropoff: geo.Point{X: 4}, Frame: 1},
	}
	rec := tseries.New(tseries.Config{Capacity: 64})
	cfg := simpleConfig(nearestDispatcher{})
	cfg.KPI = rec
	s, err := New(cfg, []fleet.Taxi{{ID: 0}, {ID: 7, Pos: geo.Point{X: 3}}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServedCount() != 2 {
		t.Fatalf("served %d, want 2", rep.ServedCount())
	}
	samples := s.KPISeries()
	if len(samples) != rep.Frames {
		t.Fatalf("recorded %d samples over %d frames", len(samples), rep.Frames)
	}
	for i, smp := range samples {
		if smp.Frame != int64(i) {
			t.Errorf("sample %d has frame %d", i, smp.Frame)
		}
		if smp.FrameNs <= 0 {
			t.Errorf("frame %d has non-positive wall-clock %d", i, smp.FrameNs)
		}
	}
	// Frame 0 dispatches request 1 instantly; frame 1 dispatches request
	// 2; from then on served stays 2 and the queue stays empty.
	if samples[0].Served != 1 || samples[0].Queued != 0 {
		t.Errorf("frame 0 served/queued = %d/%d, want 1/0", samples[0].Served, samples[0].Queued)
	}
	last := samples[len(samples)-1]
	if last.Served != 2 || last.Queued != 0 {
		t.Errorf("final served/queued = %d/%d, want 2/0", last.Served, last.Queued)
	}
	if last.DelayMean != 0 || last.DelayP95 != 0 {
		t.Errorf("instant dispatches should have zero delay, got mean %v p95 %v", last.DelayMean, last.DelayP95)
	}
	// Both pickups are 0 km away (taxi co-located? no: taxi 0 at origin,
	// pickup at x=1) — passenger dissatisfaction is the pickup distance.
	if last.PassDissMean <= 0 {
		t.Errorf("passenger dissatisfaction mean = %v, want > 0", last.PassDissMean)
	}
}

// TestKPIExpiredAndDelay checks the expired counter and the nonzero
// delay series: one lone taxi, two requests, finite patience.
func TestKPIExpiredAndDelay(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 30}, Frame: 0},
		// Far away while the taxi is busy; expires after patience.
		{ID: 2, Pickup: geo.Point{X: 200}, Dropoff: geo.Point{X: 201}, Frame: 0},
	}
	rec := tseries.New(tseries.Config{Capacity: 256})
	cfg := simpleConfig(nearestDispatcher{})
	cfg.KPI = rec
	cfg.PatienceFrames = 3
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	samples := rec.Snapshot()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	last := samples[len(samples)-1]
	if last.Expired != 1 {
		t.Errorf("expired = %d, want 1 (request 2 outlives patience)", last.Expired)
	}
	if last.Served != 1 {
		t.Errorf("served = %d, want 1", last.Served)
	}
}

// TestKPIDisabled keeps the nil-recorder path inert: no samples, an
// empty non-nil series.
func TestKPIDisabled(t *testing.T) {
	s, err := New(simpleConfig(nearestDispatcher{}), singleTaxi(geo.Point{}),
		[]fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.KPIRecorder() != nil {
		t.Error("KPIRecorder non-nil without configuration")
	}
	if got := s.KPISeries(); got == nil || len(got) != 0 {
		t.Errorf("KPISeries = %#v, want empty non-nil", got)
	}
}

// TestDelayDistQuantile pins the integer delay histogram's quantiles.
func TestDelayDistQuantile(t *testing.T) {
	var d delayDist
	if got := d.quantile(0.95); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// 100 observations: 95 zeros, 5 tens → p95 = 0 boundary, p99 = 10.
	for i := 0; i < 95; i++ {
		d.add(0)
	}
	for i := 0; i < 5; i++ {
		d.add(10)
	}
	if got := d.quantile(0.95); got != 0 {
		t.Errorf("p95 = %v, want 0", got)
	}
	if got := d.quantile(0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	d.add(delayBuckets + 500) // overflow clamps
	if got := d.quantile(1); got != delayBuckets {
		t.Errorf("max = %v, want %v", got, delayBuckets)
	}
}
