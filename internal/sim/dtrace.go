package sim

import (
	"fmt"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/pref"
)

// Decision-trace wiring for the engine: lifecycle events land on each
// request's trace, and every dispatched frame gets a stability
// certificate at commit — a blocking-pair scan of the realized matching
// against the §IV-A interest model the frame was dispatched under. All
// of it is gated on dtrace.Active(), so an untraced run pays one atomic
// load per frame plus one per event.

// traceEvent forwards one lifecycle event to the decision-trace layer.
// Breakdowns carry no request (RequestID −1) and become a frame note on
// the certificate instead of a trace event.
func (s *Simulator) traceEvent(rec *dtrace.Recorder, e Event) {
	if e.RequestID < 0 {
		if e.Kind == EventBreakdown {
			rec.AddFrameNote(e.Frame, fmt.Sprintf("taxi %d broke down mid-route; its assignments were revoked", e.TaxiID))
		}
		return
	}
	var detail string
	switch e.Kind {
	case EventRequest:
		detail = "entered the pending queue"
	case EventAssign:
		detail = fmt.Sprintf("dispatched: taxi %d committed to this request", e.TaxiID)
	case EventPickup:
		detail = fmt.Sprintf("boarded taxi %d", e.TaxiID)
	case EventDropoff:
		detail = fmt.Sprintf("dropped off by taxi %d", e.TaxiID)
	case EventAbandon:
		detail = "gave up waiting (patience exceeded)"
	case EventCancel:
		detail = "assignment or request withdrawn before pickup"
	case EventRequeue:
		detail = "assignment revoked; re-entered the pending queue"
	case EventRescue:
		detail = "orphaned by a breakdown; re-entered the queue from the breakdown position"
	}
	rec.Lifecycle(e.RequestID, e.Frame, e.TaxiID, dtrace.Kind(e.Kind), detail)
}

// certifyFrame audits the frame's realized matching at commit: the
// pre-dispatch frame view pins the participants (pending requests ×
// idle taxis), the applied assignments pin the matching, and
// dtrace.Certify runs the Definition 1 blocking-pair scan under the
// §IV-A single-ride interest model. Shared-group and busy-taxi
// (insertion) assignments are evaluated under the same single-ride
// lens — deliberate: the certificate answers "would any passenger-taxi
// pair rather elope", which §V's refined model only re-weights — and
// the certificate carries a note whenever that lens was stretched.
func (s *Simulator) certifyFrame(rec *dtrace.Recorder, f *Frame, applied []fleet.Assignment) {
	idle := f.IdleTaxis()
	if len(f.Requests) == 0 || len(idle) == 0 {
		note := "no pending requests"
		if len(f.Requests) > 0 {
			note = "no idle taxis"
		}
		rec.PutCertificate(dtrace.Trivial(f.Number, len(f.Requests), len(idle), note+": nothing to match, vacuously stable"))
		return
	}
	taxis := make([]fleet.Taxi, len(idle))
	taxiIDs := make([]int, len(idle))
	taxiIdx := make(map[int]int, len(idle))
	for i, v := range idle {
		taxis[i] = fleet.Taxi{ID: v.ID, Pos: v.Pos, Seats: v.Seats, Status: fleet.TaxiIdle}
		taxiIDs[i] = v.ID
		taxiIdx[v.ID] = i
	}
	inst, err := pref.NewInstance(f.Requests, taxis, f.Metric, f.Params)
	if err != nil {
		rec.AddFrameNote(f.Number, "stability certificate unavailable: "+err.Error())
		return
	}
	reqIDs := make([]int, len(f.Requests))
	reqIdx := make(map[int]int, len(f.Requests))
	for j, r := range f.Requests {
		reqIDs[j] = r.ID
		reqIdx[r.ID] = j
	}
	reqPartner := make([]int, len(f.Requests))
	for j := range reqPartner {
		reqPartner[j] = -1
	}
	sharedLens := false
	for _, a := range applied {
		i, ok := taxiIdx[a.TaxiID]
		if !ok {
			// Insertion into a busy taxi (carpool baselines): outside
			// the idle-fleet market, so outside the scan.
			sharedLens = true
			continue
		}
		if len(a.Requests) > 1 {
			sharedLens = true
		}
		for _, id := range a.Requests {
			if j, ok := reqIdx[id]; ok {
				reqPartner[j] = i
			}
		}
	}
	c := dtrace.Certify(f.Number, &inst.Market, reqPartner, reqIDs, taxiIDs)
	if sharedLens {
		c.Notes = append(c.Notes,
			"frame contains shared or insertion assignments; certificate evaluates them under the single-ride (§IV-A) interest model")
	}
	rec.PutCertificate(c)
	if c.ViolationsTotal > 0 {
		s.kpi.violations += int64(c.ViolationsTotal)
		if r := s.cfg.Recorder; r != nil {
			r.Trigger(int64(f.Number), flightrec.ReasonStability, //nolint:errcheck // counted by the recorder
				fmt.Sprintf("frame %d certificate found %d blocking pair(s) over %d requests × %d idle taxis",
					f.Number, c.ViolationsTotal, c.Requests, c.Taxis), false)
		}
	}
}

// Counts is a cheap occupancy snapshot for health surfaces.
type Counts struct {
	// Frame is the current frame number.
	Frame int `json:"frame"`
	// Pending counts requests awaiting assignment.
	Pending int `json:"pendingRequests"`
	// Active counts requests assigned or riding but not yet dropped off.
	Active int `json:"activeRequests"`
	// Taxis is the fleet size; TaxisIdle and TaxisOffline partition the
	// dispatchable states.
	Taxis        int `json:"taxis"`
	TaxisIdle    int `json:"taxisIdle"`
	TaxisOffline int `json:"taxisOffline"`
}

// Counts returns the engine's current occupancy.
func (s *Simulator) Counts() Counts {
	c := Counts{Frame: s.frame, Pending: len(s.pending), Taxis: len(s.taxis)}
	for _, t := range s.taxis {
		if s.offline(t.taxi.ID) {
			c.TaxisOffline++
		} else if t.idle() {
			c.TaxisIdle++
		}
		c.Active += len(t.pending) + len(t.onboard)
	}
	return c
}
