package tseries

import (
	"strings"
	"sync"
	"testing"

	"stabledispatch/internal/prof"
	"stabledispatch/internal/stats"
)

func sampleAt(frame int64) Sample {
	return Sample{Frame: frame, DelayMean: float64(frame) / 2, Served: frame}
}

// TestEvictKeepsSlidingWindow fills a non-downsampling ring past
// capacity and checks the oldest samples fall off in order.
func TestEvictKeepsSlidingWindow(t *testing.T) {
	r := New(Config{Capacity: 4})
	for f := int64(0); f < 10; f++ {
		r.Record(sampleAt(f))
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d samples, want 4", len(got))
	}
	for i, s := range got {
		if want := int64(6 + i); s.Frame != want {
			t.Errorf("sample %d has frame %d, want %d", i, s.Frame, want)
		}
	}
	if r.stride != 1 {
		t.Errorf("evict policy changed stride to %d", r.stride)
	}
}

// TestDownsampleDoublesStride checks the compaction policy: a full ring
// halves occupancy, doubles the stride, and retains an evenly strided
// prefix-to-present trajectory covering the whole run.
func TestDownsampleDoublesStride(t *testing.T) {
	r := New(Config{Capacity: 8, Downsample: true})
	for f := int64(0); f < 64; f++ {
		r.Record(sampleAt(f))
	}
	if got := r.stride; got != 8 {
		t.Fatalf("stride = %d, want 8 after compactions", got)
	}
	got := r.Snapshot()
	if len(got) != 8 {
		t.Fatalf("retained %d samples, want 8 (frames 0,8,...,56)", len(got))
	}
	// The run's start survives downsampling, and retained frames stay
	// evenly strided: 0, 8, 16, ..., 56.
	for i, s := range got {
		if want := int64(i * 8); s.Frame != want {
			t.Errorf("retained sample %d has frame %d, want %d", i, s.Frame, want)
		}
	}
}

// TestWindowQueries covers LastN's trailing window, its clamping, and
// the well-formed empty result of both queries.
func TestWindowQueries(t *testing.T) {
	r := New(Config{Capacity: 100})
	for f := int64(0); f < 50; f++ {
		r.Record(sampleAt(f))
	}
	got := r.LastN(10)
	if len(got) != 10 || got[0].Frame != 40 || got[9].Frame != 49 {
		t.Fatalf("LastN(10) returned %d samples (%v..%v)", len(got), got[0].Frame, got[len(got)-1].Frame)
	}
	if all := r.LastN(1000); len(all) != 50 || all[0].Frame != 0 {
		t.Fatalf("LastN(1000) over 50 samples returned %d starting at %v, want all 50 from frame 0", len(all), all[0].Frame)
	}
	// Empty window: non-nil, zero length, no panic.
	if empty := r.LastN(0); empty == nil || len(empty) != 0 {
		t.Fatalf("LastN(0) = %#v, want non-nil empty slice", empty)
	}
	// Empty recorder behaves the same.
	fresh := New(Config{})
	if s := fresh.Snapshot(); s == nil || len(s) != 0 {
		t.Fatalf("empty recorder snapshot = %#v, want non-nil empty slice", s)
	}
	if s := fresh.LastN(5); s == nil || len(s) != 0 {
		t.Fatalf("empty recorder LastN(5) = %#v, want non-nil empty slice", s)
	}
}

// TestConcurrentWriteSnapshot races writers against snapshot readers;
// meaningful under -race.
func TestConcurrentWriteSnapshot(t *testing.T) {
	r := New(Config{Capacity: 64, Downsample: true})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := int64(0); f < 5000; f++ {
			r.Record(sampleAt(f))
		}
		close(stop)
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range r.Snapshot() {
					_ = s.Frame
				}
				r.LastN(100)
			}
		}()
	}
	wg.Wait()
	if got := len(r.Snapshot()); got == 0 {
		t.Fatal("no samples retained after concurrent run")
	}
}

// TestValueAndSeriesNames keeps the extractor and the name table in sync.
func TestValueAndSeriesNames(t *testing.T) {
	s := Sample{
		Frame: 3, DelayMean: 1.5, DelayP95: 4, PassDissMean: 2.5, TaxiDissMean: -0.5,
		Served: 10, Queued: 2, Expired: 1, SharedRides: 4, DegradedFrames: 1,
		StabilityViolations: 2, FrameNs: 12345, Allocs: 99, CacheHitRate: 0.75,
		Accepted: 50, Shed: 7, AdmissionQueue: 5,
	}
	want := map[string]float64{
		"delay_mean": 1.5, "delay_p95": 4, "pass_diss_mean": 2.5, "taxi_diss_mean": -0.5,
		"served": 10, "queued": 2, "expired": 1, "shared_rides": 4, "degraded_frames": 1,
		"stability_violations": 2, "frame_ns": 12345, "allocs": 99, "cache_hit_rate": 0.75,
		"accepted": 50, "shed": 7, "admission_queue": 5,
	}
	// One stage_<name>_ns column per ledger stage, generated from
	// prof.StageNames.
	for i, stage := range prof.StageNames {
		s.StageNs[i] = int64(1000 * (i + 1))
		want["stage_"+stage+"_ns"] = float64(1000 * (i + 1))
	}
	if len(SeriesNames) != len(want) {
		t.Fatalf("SeriesNames has %d entries, want %d", len(SeriesNames), len(want))
	}
	for _, name := range SeriesNames {
		v, ok := s.Value(name)
		if !ok {
			t.Fatalf("Value(%q) not ok", name)
		}
		if v != want[name] {
			t.Errorf("Value(%q) = %v, want %v", name, v, want[name])
		}
	}
	if _, ok := s.Value("bogus"); ok {
		t.Error("Value accepted unknown series")
	}
	if ValidSeries("bogus") {
		t.Error("ValidSeries accepted unknown series")
	}
}

// TestWriteCSV checks the header, row shape, and unknown-series error.
func TestWriteCSV(t *testing.T) {
	r := New(Config{Capacity: 8})
	r.Record(Sample{Frame: 0, DelayMean: 1, Queued: 3})
	r.Record(Sample{Frame: 1, DelayMean: 2, Queued: 1})
	var b strings.Builder
	if err := WriteCSV(&b, r.Snapshot(), []string{"delay_mean", "queued"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), b.String())
	}
	if lines[0] != "frame,delay_mean,queued" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,3" || lines[2] != "1,2,1" {
		t.Errorf("rows = %q, %q", lines[1], lines[2])
	}
	if err := WriteCSV(&b, r.Snapshot(), []string{"nope"}); err == nil {
		t.Error("WriteCSV accepted unknown series")
	}
	// Empty series list means every known series.
	b.Reset()
	if err := WriteCSV(&b, r.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(strings.Split(b.String(), "\n")[0], ","); got != len(SeriesNames) {
		t.Errorf("full header has %d commas, want %d", got, len(SeriesNames))
	}
}

// TestRecordNoAllocs proves the hot path allocates nothing after
// construction.
func TestRecordNoAllocs(t *testing.T) {
	r := New(Config{Capacity: 256, Downsample: true})
	var f int64
	avg := testing.AllocsPerRun(2000, func() {
		r.Record(sampleAt(f))
		f++
	})
	if avg != 0 {
		t.Errorf("Record allocates %v objects/op, want 0", avg)
	}
}

func TestMemoryBound(t *testing.T) {
	r := New(Config{Capacity: 100})
	if got := len(r.buf); got != 100 {
		t.Errorf("ring allocated %d samples, want the capacity 100", got)
	}
	for f := int64(0); f < 100000; f++ {
		r.Record(sampleAt(f))
	}
	if got := len(r.Snapshot()); got > 100 {
		t.Errorf("ring grew to %d samples past its capacity", got)
	}
}

// TestStageBreakdownExactBelowBucketEdges pins the one stage read path
// to exact quantiles: sub-10µs stage times (below the first bucket edge
// of a fixed-bucket histogram) come out as stats.Percentile over the
// same values, counted only on frames that ran the stage.
func TestStageBreakdownExactBelowBucketEdges(t *testing.T) {
	r := New(Config{Capacity: 64})
	var frameSec, viewSec []float64
	for f := int64(0); f < 40; f++ {
		s := Sample{Frame: f, FrameNs: 9000 + 37*f}
		s.StageNs[prof.StageView] = 1000 + 211*f%7919
		if f%3 == 0 {
			s.StageNs[prof.StageMatching] = 500
		}
		r.Record(s)
		frameSec = append(frameSec, float64(s.FrameNs)/1e9)
		viewSec = append(viewSec, float64(s.StageNs[prof.StageView])/1e9)
	}
	frame, stages := StageBreakdown(r.Snapshot())
	if frame == nil || frame.Stage != "frame" || frame.Count != 40 {
		t.Fatalf("frame summary = %+v", frame)
	}
	if len(stages) != 2 || stages[0].Stage != "view" || stages[1].Stage != "matching" {
		t.Fatalf("stages = %+v, want view then matching", stages)
	}
	for _, c := range []struct {
		got  StageSummary
		xs   []float64
		name string
	}{{*frame, frameSec, "frame"}, {stages[0], viewSec, "view"}} {
		for _, q := range []struct {
			got, p float64
		}{{c.got.P50Seconds, 50}, {c.got.P95Seconds, 95}, {c.got.P99Seconds, 99}} {
			if want := stats.Percentile(c.xs, q.p); q.got != want {
				t.Errorf("%s p%v = %v, want exact %v", c.name, q.p, q.got, want)
			}
		}
	}
	if m := stages[1]; m.Count != 14 || m.P50Seconds != 5e-7 || m.TotalSeconds != 7e-6 {
		t.Errorf("matching summary = %+v, want 14 frames of 0.5µs", m)
	}
	if frame, stages := StageBreakdown(nil); frame != nil || stages != nil {
		t.Errorf("empty window = %+v, %+v, want nil", frame, stages)
	}
}
