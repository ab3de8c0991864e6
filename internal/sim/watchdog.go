package sim

import (
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// Watchdog glue: after every recorded frame, the finished sample is
// pushed into the flight recorder's context ring (with the frame's
// certificate summary and the fault-injection state), handed to the SLO
// engine for evaluation, and published on the hub's kpi topic. The SLO
// engine's transitions are forwarded here too: each is published on the
// slo topic and each breach fires the recorder. Every handle is
// optional (a nil check each), and none of this runs when KPI recording
// is off, since there is no sample to evaluate.

// watchFrame feeds one completed frame's sample to the flight recorder,
// the SLO engine, and the hub. Ring push precedes evaluation so a breach
// bundle contains the frame that tripped it.
func (s *Simulator) watchFrame(sample tseries.Sample) {
	rec, hub := s.cfg.Recorder, s.cfg.Hub
	if rec != nil {
		rec.ObserveFrame(s.frameContext(sample))
	}
	if s.cfg.SLO != nil {
		for _, tr := range s.cfg.SLO.Observe(sample) {
			if tr.To == slo.StateBreach && rec != nil {
				rec.Trigger(tr.Frame, flightrec.ReasonSLOBreach, tr.Detail(), false) //nolint:errcheck // counted by the recorder
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

// frameContext assembles the flight recorder's per-frame rich context.
func (s *Simulator) frameContext(sample tseries.Sample) flightrec.FrameContext {
	fc := flightrec.FrameContext{Frame: sample.Frame, KPI: sample}
	if rec := dtrace.Active(); rec != nil {
		if c, ok := rec.Certificate(int(sample.Frame)); ok {
			fc.Cert = &flightrec.CertSummary{
				Stable:     c.Stable,
				Violations: c.ViolationsTotal,
				Matched:    c.Matched,
				Requests:   c.Requests,
				Taxis:      c.Taxis,
			}
		}
	}
	if s.cfg.Faults != nil {
		fi := &flightrec.FaultInfo{}
		if cfgd, ok := s.cfg.Faults.(interface{ Config() fault.Config }); ok {
			c := cfgd.Config()
			fi.Seed = c.Seed
			fi.BreakdownRate = c.BreakdownRate
			fi.DriverCancelRate = c.DriverCancelRate
			fi.PassengerCancelRate = c.PassengerCancelRate
		}
		for id := range s.activeOutage {
			if s.offline(id) {
				fi.ActiveOutages++
			}
		}
		fc.Fault = fi
	}
	return fc
}
