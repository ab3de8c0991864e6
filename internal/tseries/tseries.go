// Package tseries is the per-frame KPI time-series layer: a bounded,
// allocation-conscious recorder the simulator feeds once per dispatch
// frame with the paper's §VI quantities (dispatch delay, passenger and
// taxi dissatisfaction, served/queued/expired counts, shared rides,
// degraded frames) plus runtime series (frame wall-clock, allocations,
// Dijkstra cache hit rate, and the frame's time in each profiler stage).
// A sample is the one per-frame record: StageBreakdown computes every
// stage distribution the system serves from a window of samples.
//
// The recorder is a ring of fixed-width Sample values. Memory is bounded
// by Capacity·sizeof(Sample) and allocated once at construction; Record
// never allocates. Two retention policies are available once the ring
// fills:
//
//   - evict (Downsample=false, the daemon's default): the oldest sample
//     is overwritten, keeping a sliding window of the most recent frames.
//   - downsample (Downsample=true, the batch runners' default): the ring
//     is compacted in place keeping every second sample and the recording
//     stride doubles, so the whole run's trajectory survives at halving
//     time resolution — a day-long run fits any capacity.
//
// Snapshot and LastN copy out under the same mutex Record takes, so
// readers (/v1/profile and /v1/metrics, the stream's connect snapshot,
// the -kpi-out exporter, flight-recorder bundles) are safe against a
// concurrently stepping simulator.
package tseries

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"stabledispatch/internal/prof"
	"stabledispatch/internal/stats"
)

// Sample is one frame's KPI snapshot. All fields are fixed-width scalars
// so a ring of Samples is a single flat allocation.
//
// Count fields are cumulative over the run (monotone), depth fields are
// point-in-time, and the delay/dissatisfaction aggregates are running
// statistics over everything served so far — the same quantities the
// end-of-run Report computes, resolved per frame.
type Sample struct {
	// Frame is the simulation frame the sample describes.
	Frame int64 `json:"frame"`
	// DelayMean is the mean dispatch delay (frames) over served requests.
	DelayMean float64 `json:"delayMean"`
	// DelayP95 is the 95th-percentile dispatch delay (frames).
	DelayP95 float64 `json:"delayP95"`
	// PassDissMean is the mean passenger dissatisfaction (km).
	PassDissMean float64 `json:"passDissMean"`
	// TaxiDissMean is the mean taxi dissatisfaction per decision (km).
	TaxiDissMean float64 `json:"taxiDissMean"`
	// Served counts requests assigned a taxi so far.
	Served int64 `json:"served"`
	// Queued is the pending-queue depth after this frame's dispatch.
	Queued int64 `json:"queued"`
	// Expired counts patience-exceeded abandonments so far.
	Expired int64 `json:"expired"`
	// SharedRides counts dispatch decisions that produced or extended a
	// shared ride.
	SharedRides int64 `json:"sharedRides"`
	// DegradedFrames counts frames the Resilient wrapper degraded to its
	// fallback dispatcher.
	DegradedFrames int64 `json:"degradedFrames"`
	// StabilityViolations counts blocking-pair violations found by the
	// per-frame stability certificates so far (0 when decision tracing
	// is off: the certificate scan only runs under dtrace).
	StabilityViolations int64 `json:"stabilityViolations"`
	// FrameNs is this frame's wall-clock cost in nanoseconds.
	FrameNs int64 `json:"frameNs"`
	// Allocs is the number of heap objects allocated during the frame.
	Allocs int64 `json:"allocs"`
	// CacheHitRate is the cumulative Dijkstra-cache hit rate in [0,1]
	// (zero when no road-network metric is in play).
	CacheHitRate float64 `json:"cacheHitRate"`
	// Accepted counts requests admitted through the serving front door
	// so far (0 in batch runs: only the dispatch daemon admits).
	Accepted int64 `json:"accepted"`
	// Shed counts requests the admission controller rejected so far,
	// summed over every shed reason.
	Shed int64 `json:"shed"`
	// AdmissionQueue is the intake-queue depth when the frame was
	// recorded (admitted requests awaiting frame injection).
	AdmissionQueue int64 `json:"admissionQueue"`
	// StageNs is the frame's wall-clock per frame-budget ledger stage,
	// indexed like prof.StageNames (all zero without a ledger). Each
	// stage is the series stage_<name>_ns.
	StageNs [prof.NumStages]int64 `json:"stageNs"`
}

// stageSeries are the stage columns' series names, stage_<name>_ns in
// prof.StageNames order.
var stageSeries = func() (names [prof.NumStages]string) {
	for i, stage := range prof.StageNames {
		names[i] = "stage_" + stage + "_ns"
	}
	return names
}()

// SeriesNames lists every extractable per-sample series, in the column
// order WriteCSV emits.
var SeriesNames = append([]string{
	"delay_mean", "delay_p95", "pass_diss_mean", "taxi_diss_mean",
	"served", "queued", "expired", "shared_rides", "degraded_frames",
	"stability_violations", "frame_ns", "allocs", "cache_hit_rate",
	"accepted", "shed", "admission_queue",
}, stageSeries[:]...)

// Value extracts one named series value from the sample; ok is false for
// unknown names.
func (s Sample) Value(name string) (v float64, ok bool) {
	switch name {
	case "delay_mean":
		return s.DelayMean, true
	case "delay_p95":
		return s.DelayP95, true
	case "pass_diss_mean":
		return s.PassDissMean, true
	case "taxi_diss_mean":
		return s.TaxiDissMean, true
	case "served":
		return float64(s.Served), true
	case "queued":
		return float64(s.Queued), true
	case "expired":
		return float64(s.Expired), true
	case "shared_rides":
		return float64(s.SharedRides), true
	case "degraded_frames":
		return float64(s.DegradedFrames), true
	case "stability_violations":
		return float64(s.StabilityViolations), true
	case "frame_ns":
		return float64(s.FrameNs), true
	case "allocs":
		return float64(s.Allocs), true
	case "cache_hit_rate":
		return s.CacheHitRate, true
	case "accepted":
		return float64(s.Accepted), true
	case "shed":
		return float64(s.Shed), true
	case "admission_queue":
		return float64(s.AdmissionQueue), true
	}
	for i, stage := range stageSeries {
		if name == stage {
			return float64(s.StageNs[i]), true
		}
	}
	return 0, false
}

// ValidSeries reports whether name is a known series.
func ValidSeries(name string) bool {
	_, ok := Sample{}.Value(name)
	return ok
}

// DefaultCapacity bounds the ring when Config.Capacity is not positive:
// enough for a simulated day at one sample per frame.
const DefaultCapacity = 1440

// Config parameterises a Recorder.
type Config struct {
	// Capacity is the maximum number of retained samples (default
	// DefaultCapacity). The ring's memory is Capacity·sizeof(Sample),
	// allocated once.
	Capacity int
	// Downsample selects the full-ring policy: false evicts the oldest
	// sample (sliding window), true compacts the ring keeping every
	// second sample and doubles the recording stride, preserving the
	// whole run at halving resolution.
	Downsample bool
}

// Recorder is the bounded per-frame KPI ring. Safe for concurrent use.
type Recorder struct {
	mu         sync.Mutex
	buf        []Sample
	head       int // index of the oldest sample
	n          int // live sample count
	stride     int // record every stride-th offered sample (downsampling)
	skip       int // offers left to skip before the next record
	downsample bool
}

// New builds a recorder; the ring is allocated up front.
func New(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	// A downsampling compaction keeps ceil(n/2) samples and then appends
	// one more, so the ring must hold at least two.
	if cfg.Capacity < 2 {
		cfg.Capacity = 2
	}
	return &Recorder{
		buf:        make([]Sample, cfg.Capacity),
		stride:     1,
		downsample: cfg.Downsample,
	}
}

// Record offers one frame's sample to the ring. O(1) amortised, no
// allocations; under downsampling, samples between strides are dropped
// and a full ring compacts in place.
func (r *Recorder) Record(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.skip > 0 {
		r.skip--
		return
	}
	r.skip = r.stride - 1
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = s
		r.n++
		return
	}
	if !r.downsample {
		// Evict the oldest: overwrite it and advance the head.
		r.buf[r.head] = s
		r.head = (r.head + 1) % len(r.buf)
		return
	}
	// Compact: keep every second sample (the even offsets), halving the
	// occupancy, then double the stride so future offers arrive at the
	// new resolution.
	kept := 0
	for i := 0; i < r.n; i += 2 {
		r.buf[kept] = r.buf[(r.head+i)%len(r.buf)]
		kept++
	}
	r.head = 0
	r.n = kept
	r.stride *= 2
	// skip was charged against the old stride above; re-charge it so the
	// next retained sample lands stride-aligned with the survivors.
	r.skip = r.stride - 1
	r.buf[r.n] = s
	r.n++
}

// Snapshot copies out every retained sample in chronological order. The
// result is never nil.
func (r *Recorder) Snapshot() []Sample { return r.LastN(math.MaxInt) }

// LastN copies out the newest n retained samples in chronological
// order (all of them when n exceeds the retained count). The result is
// never nil. The live-stream snapshot uses it to seed a new subscriber
// with the recent KPI trajectory.
func (r *Recorder) LastN(n int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.n {
		n = r.n
	}
	if n < 0 {
		n = 0
	}
	out := make([]Sample, 0, n)
	for i := r.n - n; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// WriteCSV renders samples as a CSV table: a frame column followed by
// the requested series (all of SeriesNames when series is empty).
func WriteCSV(w io.Writer, samples []Sample, series []string) error {
	if len(series) == 0 {
		series = SeriesNames
	}
	for _, name := range series {
		if !ValidSeries(name) {
			return fmt.Errorf("tseries: unknown series %q", name)
		}
	}
	var b strings.Builder
	b.WriteString("frame")
	for _, name := range series {
		b.WriteByte(',')
		b.WriteString(name)
	}
	b.WriteByte('\n')
	for _, s := range samples {
		b.WriteString(strconv.FormatInt(s.Frame, 10))
		for _, name := range series {
			v, _ := s.Value(name)
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// StageSummary is one column's distribution over a window of samples:
// Count frames with a positive value, their total, and exact quantiles
// of the per-frame value, in seconds.
type StageSummary struct {
	Stage        string  `json:"stage"`
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"totalSeconds"`
	P50Seconds   float64 `json:"p50Seconds"`
	P95Seconds   float64 `json:"p95Seconds"`
	P99Seconds   float64 `json:"p99Seconds"`
}

// StageBreakdown is the one read path for stage timing: the whole-frame
// wall-clock distribution (nil when no sample has one) and one
// distribution per ledger stage, in prof.StageNames order, over the
// given samples. A frame counts toward a column only when its value is
// positive, so stages no frame ran are omitted.
func StageBreakdown(samples []Sample) (frame *StageSummary, stages []StageSummary) {
	xs := make([]float64, 0, len(samples))
	summarize := func(name string, col func(*Sample) int64) (StageSummary, bool) {
		xs = xs[:0]
		var total int64
		for i := range samples {
			if ns := col(&samples[i]); ns > 0 {
				xs = append(xs, float64(ns)/1e9)
				total += ns
			}
		}
		if len(xs) == 0 {
			return StageSummary{}, false
		}
		return StageSummary{
			Stage:        name,
			Count:        uint64(len(xs)),
			TotalSeconds: float64(total) / 1e9,
			P50Seconds:   stats.Percentile(xs, 50),
			P95Seconds:   stats.Percentile(xs, 95),
			P99Seconds:   stats.Percentile(xs, 99),
		}, true
	}
	if st, ok := summarize("frame", func(s *Sample) int64 { return s.FrameNs }); ok {
		frame = &st
	}
	for i, name := range prof.StageNames {
		if st, ok := summarize(name, func(s *Sample) int64 { return s.StageNs[i] }); ok {
			stages = append(stages, st)
		}
	}
	return frame, stages
}
