package sim

import (
	"maps"

	"stabledispatch/internal/roadnet"
)

// Stats is the simulator's cumulative activity since New: the counts
// behind dispatchd's sim_*, dispatch_degraded_frames_total and
// roadnet_cache_* series. Each count is kept once, on this simulator,
// so two simulators in one process never share a number.
type Stats struct {
	// Frames counts frames stepped; Pending is the current pending-queue
	// depth.
	Frames  int
	Pending int
	// Events counts lifecycle events emitted, by kind (every kind is
	// present).
	Events map[EventKind]int
	// Fault counts: taxis broken down, assignments the driver cancelled,
	// and requests the passenger cancelled.
	Breakdowns       int
	DriverCancels    int
	PassengerCancels int
	// Redispatched counts requests the fault machinery put back in the
	// queue (requeue and rescue events).
	Redispatched int
	// Expired counts requests abandoned at the patience bound (abandon
	// events).
	Expired int
	// SinkErrors is 1 once the configured event sink has failed (sinks
	// fail sticky), else 0.
	SinkErrors int
	// Degraded counts frames handed to a fallback dispatcher, by the
	// reason given to Frame.NoteDegraded.
	Degraded map[string]int
	// Cache holds the Dijkstra-cache counters of the simulator's metric
	// (zero when the metric has no cache).
	Cache roadnet.CacheStats
}

// Stats returns the simulator's cumulative counts. Like every other
// accessor it must not run concurrently with Step.
func (s *Simulator) Stats() Stats {
	st := Stats{
		Frames:           s.frame,
		Pending:          len(s.pending),
		Events:           make(map[EventKind]int, len(eventKinds)),
		Breakdowns:       s.events[EventBreakdown],
		DriverCancels:    s.driverCancels,
		PassengerCancels: s.events[EventCancel] - s.driverCancels,
		Redispatched:     s.events[EventRequeue] + s.events[EventRescue],
		Expired:          s.events[EventAbandon],
		Cache:            s.cacheStats(),
	}
	for _, k := range eventKinds {
		st.Events[k] = s.events[k]
	}
	if es, ok := s.cfg.Events.(interface{ Err() error }); ok && es.Err() != nil {
		st.SinkErrors = 1
	}
	s.degradedMu.Lock()
	st.Degraded = maps.Clone(s.degraded)
	s.degradedMu.Unlock()
	return st
}

// degradedTotal sums the degraded-frame counts over every reason.
func (s *Simulator) degradedTotal() int {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	n := 0
	for _, c := range s.degraded {
		n += c
	}
	return n
}

// cacheStats reads the Dijkstra-cache counters of the simulator's
// metric, or zeros when the metric has no cache.
func (s *Simulator) cacheStats() roadnet.CacheStats {
	if m, ok := s.cfg.Metric.(interface{ CacheStats() roadnet.CacheStats }); ok {
		return m.CacheStats()
	}
	return roadnet.CacheStats{}
}
