package sim

import (
	"io"

	"stabledispatch/internal/fault"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// Watchdog glue: after every recorded frame, the finished sample is
// handed to the SLO engine for evaluation and published on the hub's
// kpi topic. The SLO engine's transitions are forwarded here too: each
// is published on the slo topic and each breach queues a flight-recorder
// trigger. Every handle is optional (a nil check each), and none of this
// runs when KPI recording is off, since there is no sample to evaluate.

// watchFrame feeds one completed frame's sample to the SLO engine and
// the hub.
func (s *Simulator) watchFrame(sample tseries.Sample) {
	hub := s.cfg.Hub
	if s.cfg.SLO != nil {
		for _, tr := range s.cfg.SLO.Observe(sample) {
			if tr.To == slo.StateBreach {
				s.queueTrigger(tr.Frame, flightrec.ReasonSLOBreach, tr.Detail())
			}
			if hub.Wants(stream.TopicSLO) {
				hub.Publish(stream.TopicSLO, tr.Frame, tr)
			}
		}
	}
	if hub.Wants(stream.TopicKPI) {
		hub.Publish(stream.TopicKPI, sample.Frame, sample)
	}
}

// trigger is one flight-recorder trigger raised during a frame.
type trigger struct {
	frame  int64
	reason flightrec.Reason
	detail string
}

// queueTrigger defers a trigger to the end of Step. NoteDegraded may
// call it from a Resilient primary's goroutine, hence degradedMu.
func (s *Simulator) queueTrigger(frame int64, reason flightrec.Reason, detail string) {
	if s.cfg.Recorder == nil {
		return
	}
	s.degradedMu.Lock()
	s.triggers = append(s.triggers, trigger{frame, reason, detail})
	s.degradedMu.Unlock()
}

// fireTriggers runs at the end of Step, once the frame's KPI sample is
// recorded and its clock stopped: it publishes the outage count that
// bundles report, then fires the triggers queued during the frame in
// the order they were raised. So every bundle holds the frame that
// tripped it, and no ledger stage pays for the bundle's disk writes.
func (s *Simulator) fireTriggers() {
	r := s.cfg.Recorder
	if r == nil {
		return
	}
	n := 0
	for id := range s.activeOutage {
		if s.offline(id) {
			n++
		}
	}
	s.outagesNow.Store(int64(n))
	s.degradedMu.Lock()
	queued := s.triggers
	s.triggers = nil
	s.degradedMu.Unlock()
	for _, tr := range queued {
		r.Trigger(tr.frame, tr.reason, tr.detail) //nolint:errcheck // counted by the recorder
	}
}

// faultState is a bundle's faults section.
type faultState struct {
	// Config is the injector's configuration (nil without a seeded
	// injector).
	Config *fault.Config `json:"config,omitempty"`
	// ActiveOutages counts taxis offline at the last frame boundary
	// (configured outages, chaos injections, and breakdown repairs).
	ActiveOutages int64 `json:"activeOutages"`
}

// bundleContents freezes what a flight-recorder bundle holds, read from
// the simulator's own stores: kpi.csv and the stages section from one
// snapshot of the KPI ring, events.jsonl from the event tail, trace.json
// from the tracer, and the slo and faults sections. Each store carries
// its own lock, so a trigger on another goroutine (dispatchd's HTTP
// panic trigger) reads them safely.
func (s *Simulator) bundleContents() flightrec.Contents {
	fs := faultState{ActiveOutages: s.outagesNow.Load()}
	if f, ok := s.cfg.Faults.(interface{ Config() fault.Config }); ok {
		c := f.Config()
		fs.Config = &c
	}
	c := flightrec.Contents{Sections: map[string]any{"faults": fs}}
	if s.cfg.SLO != nil {
		c.Sections["slo"] = s.cfg.SLO.Status()
	}
	if kpi := s.cfg.KPI; kpi != nil {
		samples := kpi.Snapshot()
		_, c.Sections["stages"] = tseries.StageBreakdown(samples)
		c.Files = append(c.Files, flightrec.Attachment{Kind: "kpi", Name: "kpi.csv", Fill: func(w io.Writer) error {
			return tseries.WriteCSV(w, samples, nil)
		}})
	}
	events := s.RecentEvents()
	c.Files = append(c.Files, flightrec.Attachment{Kind: "events", Name: "events.jsonl", Fill: func(w io.Writer) error {
		sink := NewJSONLSink(w)
		for _, e := range events {
			sink.Record(e)
		}
		return sink.Err()
	}})
	if tr := s.cfg.Tracer; tr != nil {
		c.Files = append(c.Files, flightrec.Attachment{Kind: "trace", Name: "trace.json", Fill: tr.WriteChromeTrace})
	}
	return c
}
