package sim

import "stabledispatch/internal/obs"

// Engine telemetry: frame count, pending-queue depth after dispatch,
// and lifecycle event counts. Frame and stage timing live in the
// simulator's own frame-budget ledger (Config.Ledger).
var (
	obsFrames       = obs.GetOrCreateCounter("sim_frames_total")
	obsPendingDepth = obs.GetOrCreateGauge("sim_pending_requests")
	// obsExpired counts patience-exceeded abandonments: requests the
	// engine dropped because no dispatch arrived within the patience
	// bound. The abandon event counter below tracks the same lifecycle
	// step; this dedicated counter keeps the expiry rate scrapeable even
	// when event counting is filtered.
	obsExpired         = obs.GetOrCreateCounter("sim_requests_expired_total")
	obsEventSinkErrors = obs.GetOrCreateCounter("sim_event_sink_errors_total")

	obsEvents = map[EventKind]*obs.Counter{
		EventRequest:   obs.GetOrCreateCounter(`sim_events_total{kind="request"}`),
		EventAssign:    obs.GetOrCreateCounter(`sim_events_total{kind="assign"}`),
		EventPickup:    obs.GetOrCreateCounter(`sim_events_total{kind="pickup"}`),
		EventDropoff:   obs.GetOrCreateCounter(`sim_events_total{kind="dropoff"}`),
		EventAbandon:   obs.GetOrCreateCounter(`sim_events_total{kind="abandon"}`),
		EventCancel:    obs.GetOrCreateCounter(`sim_events_total{kind="cancel"}`),
		EventBreakdown: obs.GetOrCreateCounter(`sim_events_total{kind="breakdown"}`),
		EventRequeue:   obs.GetOrCreateCounter(`sim_events_total{kind="requeue"}`),
		EventRescue:    obs.GetOrCreateCounter(`sim_events_total{kind="rescue"}`),
	}

	// Fault-class counters and the re-dispatch counter: how often each
	// fault struck and how many revoked requests re-entered the queue.
	obsFaults = map[string]*obs.Counter{
		"breakdown":        obs.GetOrCreateCounter(`sim_faults_total{kind="breakdown"}`),
		"driver_cancel":    obs.GetOrCreateCounter(`sim_faults_total{kind="driver_cancel"}`),
		"passenger_cancel": obs.GetOrCreateCounter(`sim_faults_total{kind="passenger_cancel"}`),
	}
	obsRedispatch = obs.GetOrCreateCounter("sim_redispatch_total")
)
