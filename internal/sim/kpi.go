package sim

import (
	"runtime/metrics"
	"time"

	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/tseries"
)

// Per-frame KPI recording: when Config.KPI carries a tseries.Recorder,
// every Step finishes by appending one fixed-width sample with the
// paper's §VI quantities — resolved as running statistics over the
// dispatch decisions so far — plus the frame's wall-clock cost, heap
// allocations (runtime/metrics, no stop-the-world), the degraded-frame
// count, the Dijkstra cache hit rate of this simulator's own Metric,
// and the front-door counts of its own admission source. Every column is
// this simulator's state: two simulators in one process never see each
// other's numbers. The aggregates live on the engine and are updated
// inline at the points the outcomes are already in hand, so recording
// adds O(1) work per assignment and one ring write per frame.
//
// Semantics: delay/dissatisfaction series are per *dispatch decision* —
// a request revoked by a fault and re-dispatched contributes one
// observation per dispatch. Served is the net assigned count (revocations
// subtract), matching what Counts and the live report show.

// delayBuckets caps the exact dispatch-delay distribution at 1024
// frames; longer delays land in the overflow bucket and quantiles there
// are a lower bound. Delays are whole frames, so integer-indexed counts
// give exact quantiles below the cap.
const delayBuckets = 1024

// delayDist is an exact integer histogram of dispatch delays in frames.
type delayDist struct {
	counts [delayBuckets + 1]uint32
	total  int64
}

func (d *delayDist) add(frames int) {
	if frames < 0 {
		frames = 0
	}
	if frames > delayBuckets {
		frames = delayBuckets
	}
	d.counts[frames]++
	d.total++
}

// quantile returns the q-quantile delay in frames (0 with no data).
func (d *delayDist) quantile(q float64) float64 {
	if d.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.total)
	cum := 0.0
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= rank {
			return float64(i)
		}
	}
	return delayBuckets
}

// kpiState is the engine's running KPI aggregate set.
type kpiState struct {
	served      int64 // net assigned requests (revocations subtract)
	assignedObs int64 // dispatch-decision request observations
	delaySum    float64
	delays      delayDist
	passDissSum float64
	decisions   int64
	taxiDissSum float64
	shared      int64
	expired     int64
	violations  int64 // blocking-pair violations from the dtrace certificates

	memSamples [1]metrics.Sample
}

// readAllocs returns the process's cumulative heap-object allocation
// count via runtime/metrics (cheap: no stop-the-world, no allocation).
func (k *kpiState) readAllocs() uint64 {
	if k.memSamples[0].Name == "" {
		k.memSamples[0].Name = "/gc/heap/allocs:objects"
	}
	metrics.Read(k.memSamples[:])
	if v := k.memSamples[0].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// assignRequest folds one newly dispatched request into the running
// delay and passenger-dissatisfaction series.
func (k *kpiState) assignRequest(delayFrames int, passDiss float64) {
	k.served++
	k.assignedObs++
	k.delaySum += float64(delayFrames)
	k.delays.add(delayFrames)
	k.passDissSum += passDiss
}

// assignDecision folds one dispatch decision into the taxi-side series.
func (k *kpiState) assignDecision(o AssignmentOutcome) {
	k.decisions++
	k.taxiDissSum += o.Dissatisfaction
	if o.Shared {
		k.shared++
	}
}

// unassign reverses one revoked assignment's served count. The delay and
// dissatisfaction observations stand: they were real decisions.
func (k *kpiState) unassign() { k.served-- }

// recordKPI appends the completed frame's sample to the ring and
// returns it for the SLO/flight-recorder pipeline.
func (s *Simulator) recordKPI(rec *tseries.Recorder, frame int, wall time.Duration, allocs uint64) tseries.Sample {
	k := &s.kpi
	sample := tseries.Sample{
		Frame:               int64(frame),
		DelayP95:            k.delays.quantile(0.95),
		Served:              k.served,
		Queued:              int64(len(s.pending)),
		Expired:             k.expired,
		SharedRides:         k.shared,
		DegradedFrames:      s.degraded.Load(),
		StabilityViolations: k.violations,
		FrameNs:             wall.Nanoseconds(),
		Allocs:              int64(allocs),
	}
	if a := s.cfg.Admission; a != nil {
		sample.Accepted = int64(a.Accepted())
		sample.Shed = int64(a.Shed())
		sample.AdmissionQueue = int64(a.QueueDepth())
	}
	if k.assignedObs > 0 {
		sample.DelayMean = k.delaySum / float64(k.assignedObs)
		sample.PassDissMean = k.passDissSum / float64(k.assignedObs)
	}
	if k.decisions > 0 {
		sample.TaxiDissMean = k.taxiDissSum / float64(k.decisions)
	}
	if m, ok := s.cfg.Metric.(interface{ CacheStats() roadnet.CacheStats }); ok {
		if cs := m.CacheStats(); cs.Hits+cs.Misses > 0 {
			sample.CacheHitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
	}
	rec.Record(sample)
	return sample
}

// KPIRecorder returns the configured per-frame KPI recorder, or nil when
// KPI recording is disabled.
func (s *Simulator) KPIRecorder() *tseries.Recorder { return s.cfg.KPI }

// Ledger returns the configured frame-budget ledger, or nil.
func (s *Simulator) Ledger() *prof.Ledger { return s.cfg.Ledger }

// Recorder returns the configured flight recorder, or nil.
func (s *Simulator) Recorder() *flightrec.Recorder { return s.cfg.Recorder }

// KPISeries snapshots every retained per-frame KPI sample in
// chronological order. The result is empty (never nil) when KPI
// recording is disabled. Safe to call concurrently with Step: the ring
// carries its own lock.
func (s *Simulator) KPISeries() []tseries.Sample {
	if s.cfg.KPI == nil {
		return []tseries.Sample{}
	}
	return s.cfg.KPI.Snapshot()
}

// KPIWindow returns the retained samples with frame in [from, to]
// (negative to means "through the latest"), thinned to every step-th.
// Empty (never nil) when recording is disabled or the window is empty.
func (s *Simulator) KPIWindow(from, to int64, step int) []tseries.Sample {
	if s.cfg.KPI == nil {
		return []tseries.Sample{}
	}
	return s.cfg.KPI.Window(from, to, step)
}
