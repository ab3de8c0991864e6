package sim

import (
	"errors"
	"fmt"

	"stabledispatch/internal/fleet"
)

// FaultInjector decides which faults strike a run. Implementations must
// be deterministic pure functions of their arguments (internal/fault's
// seeded Schedule is the standard one) so a run replays identically for
// a fixed seed; the engine consults the injector at well-defined points
// of each frame.
type FaultInjector interface {
	// PassengerCancelAfter reports whether the passenger of requestID
	// cancels before pickup and how many frames after arrival the
	// cancellation fires (≥ 1).
	PassengerCancelAfter(requestID int) (frames int, ok bool)
	// DriverCancelAfter reports whether the driver of taxiID abandons
	// the assignment of requestID made at assignFrame, and how many
	// frames after assignment it fires (≥ 1). It only takes effect if
	// the passenger has not been picked up by then.
	DriverCancelAfter(taxiID, requestID, assignFrame int) (frames int, ok bool)
	// Breakdown reports whether the busy taxi breaks down at the frame
	// and how many frames the repair keeps it out of service.
	Breakdown(taxiID, frame int) (repairFrames int, ok bool)
}

// Sentinel errors for request cancellation, so API layers can map them
// to precise status codes.
var (
	// ErrUnknownRequest reports a request ID the simulator has never
	// seen.
	ErrUnknownRequest = errors.New("sim: unknown request")
	// ErrNotCancellable reports a request past the point of
	// cancellation: already riding, completed, abandoned, or cancelled.
	ErrNotCancellable = errors.New("sim: request not cancellable")
)

// DefaultRepairFrames is how long InjectBreakdown keeps a taxi out of
// service when no duration is given.
const DefaultRepairFrames = 30

// driverCancelDue keys one scheduled driver cancellation; the taxi ID
// guards against the request having been revoked and reassigned in the
// meantime.
type driverCancelDue struct {
	requestID int
	taxiID    int
}

// refreshOutages maintains the per-frame active-outage set: outages
// whose window opens this frame are activated, expired ones dropped.
// offline() is then an O(1) map probe instead of a scan over every
// configured outage per taxi per frame.
func (s *Simulator) refreshOutages() {
	for _, o := range s.outageStart[s.frame] {
		if o.To > s.frame && o.To > s.activeOutage[o.TaxiID] {
			s.activeOutage[o.TaxiID] = o.To
		}
	}
	delete(s.outageStart, s.frame)
	for id, to := range s.activeOutage {
		if to <= s.frame {
			delete(s.activeOutage, id)
		}
	}
}

// InjectOutage takes a taxi out of service for the frame window
// [from, to); a from in the past is clamped to the current frame, so a
// caller can inject an outage into a running simulation between Steps.
func (s *Simulator) InjectOutage(taxiID, from, to int) error {
	if _, ok := s.byID[taxiID]; !ok {
		return fmt.Errorf("sim: outage names unknown taxi %d", taxiID)
	}
	if from < s.frame {
		from = s.frame
	}
	if to <= from {
		return fmt.Errorf("sim: outage window [%d,%d) for taxi %d is empty", from, to, taxiID)
	}
	if from == s.frame {
		if to > s.activeOutage[taxiID] {
			s.activeOutage[taxiID] = to
		}
		return nil
	}
	s.outageStart[from] = append(s.outageStart[from], Outage{TaxiID: taxiID, From: from, To: to})
	return nil
}

// InjectBreakdown breaks a taxi immediately: its route is unwound,
// assigned passengers are requeued, onboard riders become rescue
// requests at the taxi's current position, and the taxi stays out of
// service for repairFrames (DefaultRepairFrames if non-positive).
func (s *Simulator) InjectBreakdown(taxiID, repairFrames int) error {
	t, ok := s.byID[taxiID]
	if !ok {
		return fmt.Errorf("sim: breakdown names unknown taxi %d", taxiID)
	}
	if repairFrames <= 0 {
		repairFrames = DefaultRepairFrames
	}
	s.breakdown(t, repairFrames)
	return nil
}

// CancelRequest withdraws a request before pickup (the passenger
// changed their mind): a pending request leaves the queue, an assigned
// one has its assignment unwound and the taxi freed. Riding, completed,
// abandoned, and already-cancelled requests return ErrNotCancellable.
func (s *Simulator) CancelRequest(id int) error {
	rs, ok := s.reqs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRequest, id)
	}
	switch {
	case rs.done:
		return fmt.Errorf("%w: request %d already completed", ErrNotCancellable, id)
	case rs.pickedUp:
		return fmt.Errorf("%w: request %d already riding", ErrNotCancellable, id)
	case rs.abandoned:
		return fmt.Errorf("%w: request %d already abandoned", ErrNotCancellable, id)
	case rs.cancelled:
		return fmt.Errorf("%w: request %d already cancelled", ErrNotCancellable, id)
	}
	s.passengerCancel(rs)
	return nil
}

// applyFaults runs the frame's injected faults in a fixed order —
// passenger cancellations, driver cancellations, breakdowns — before
// dispatch, so the dispatcher sees the post-fault world.
func (s *Simulator) applyFaults() {
	for _, id := range s.cancelDue[s.frame] {
		rs := s.reqs[id]
		if rs == nil || rs.done || rs.pickedUp || rs.abandoned || rs.cancelled {
			continue
		}
		s.passengerCancel(rs)
	}
	delete(s.cancelDue, s.frame)

	for _, dc := range s.driverDue[s.frame] {
		rs := s.reqs[dc.requestID]
		if rs == nil || !rs.assigned || rs.pickedUp || rs.done || rs.taxiID != dc.taxiID {
			continue
		}
		s.driverCancel(rs)
	}
	delete(s.driverDue, s.frame)

	if s.cfg.Faults == nil {
		return
	}
	for _, t := range s.taxis {
		if t.idle() || s.offline(t.taxi.ID) {
			continue
		}
		if repair, ok := s.cfg.Faults.Breakdown(t.taxi.ID, s.frame); ok {
			s.breakdown(t, max(1, repair))
		}
	}
}

// passengerCancel terminates a request before pickup, unwinding its
// assignment if it has one.
func (s *Simulator) passengerCancel(rs *requestState) {
	taxiID := -1
	if rs.assigned {
		taxiID = rs.taxiID
		s.unassign(rs)
	} else {
		s.removePending(rs)
	}
	rs.cancelled = true
	s.emit(Event{Frame: s.frame, Kind: EventCancel, RequestID: rs.req.ID, TaxiID: taxiID, Pos: rs.req.Pickup})
}

// driverCancel unwinds an assignment the driver abandoned and requeues
// the passenger at their original arrival position in the queue.
func (s *Simulator) driverCancel(rs *requestState) {
	taxiID := rs.taxiID
	s.unassign(rs)
	s.driverCancels++
	s.emit(Event{Frame: s.frame, Kind: EventCancel, RequestID: rs.req.ID, TaxiID: taxiID, Pos: rs.req.Pickup})
	s.requeue(rs, EventRequeue, taxiID)
}

// breakdown takes a busy taxi out mid-route: assigned passengers are
// requeued, onboard riders become rescue requests picked up again from
// the breakdown position, the remaining route is dropped where the taxi
// stands, and the taxi goes dark for repair frames.
func (s *Simulator) breakdown(t *taxiState, repair int) {
	s.emit(Event{Frame: s.frame, Kind: EventBreakdown, RequestID: -1, TaxiID: t.taxi.ID, Pos: t.pos})
	if to := s.frame + repair; to > s.activeOutage[t.taxi.ID] {
		s.activeOutage[t.taxi.ID] = to
	}

	// Assigned, not yet picked up: revoke and requeue, in ascending ID
	// order so the emitted event order is deterministic.
	onboard, assigned := riders(t.route)
	for _, id := range assigned {
		rs := s.reqs[id]
		s.unassign(rs)
		s.requeue(rs, EventRequeue, t.taxi.ID)
	}

	// Onboard riders are orphaned where the taxi stands: they become
	// rescue requests from the breakdown position to their original
	// destination, preserving the original arrival frame so the
	// dispatch-delay metric stays honest.
	for _, id := range onboard {
		rs := s.reqs[id]
		t.episodeTripSum -= rs.req.TripDistance(s.cfg.Metric)
		t.episodeReqs--
		rs.req.Pickup = t.pos
		rs.assigned = false
		rs.pickedUp = false
		rs.assignFrame = -1
		rs.pickupFrame = -1
		rs.taxiID = -1
		rs.passengerDiss = 0
		rs.rescued = true
		if s.cfg.KPI != nil {
			s.kpi.unassign()
		}
		s.requeue(rs, EventRescue, t.taxi.ID)
	}

	// The truncated route is abandoned in place: unlike a drain-deadline
	// episode close, the taxi does not get credit for distance it never
	// drove, so the route must be empty before closeEpisode runs.
	t.route = nil
	t.load = 0
	if t.episodeActive {
		s.closeEpisode(t)
	}
}

// unassign revokes a not-yet-picked-up assignment: the request's stops
// leave the taxi's route (a fresh slice, since frame views may share the
// old one), the episode bookkeeping stops crediting the revoked trip, and
// the request state rolls back to unassigned.
func (s *Simulator) unassign(rs *requestState) {
	t := s.byID[rs.taxiID]
	kept := make([]fleet.Stop, 0, len(t.route))
	for _, stop := range t.route {
		if stop.RequestID != rs.req.ID {
			kept = append(kept, stop)
		}
	}
	t.route = kept
	t.episodeTripSum -= rs.req.TripDistance(s.cfg.Metric)
	t.episodeReqs--
	rs.assigned = false
	rs.assignFrame = -1
	rs.taxiID = -1
	rs.passengerDiss = 0
	if s.cfg.KPI != nil {
		s.kpi.unassign()
	}
	if t.idle() && t.episodeActive {
		s.closeEpisode(t)
	}
}

// requeue re-inserts a revoked request into the pending queue at its
// original arrival-order position, so re-dispatch competes fairly with
// requests that arrived later. The patience clock restarts (the
// passenger is notified and waits anew) but the arrival frame — and
// with it the dispatch-delay metric — is preserved.
func (s *Simulator) requeue(rs *requestState, kind EventKind, taxiID int) {
	id := rs.req.ID
	rs.requeues++
	rs.waitSince = s.frame
	pos := len(s.pending)
	for i, p := range s.pending {
		pr := p.req
		if pr.Frame > rs.req.Frame || (pr.Frame == rs.req.Frame && pr.ID > id) {
			pos = i
			break
		}
	}
	s.pending = append(s.pending, nil)
	copy(s.pending[pos+1:], s.pending[pos:])
	s.pending[pos] = rs
	s.emit(Event{Frame: s.frame, Kind: kind, RequestID: id, TaxiID: taxiID, Pos: rs.req.Pickup})
}

// scheduleFaultsOnArrival asks the injector whether this just-released
// request will be passenger-cancelled, and books the cancellation.
func (s *Simulator) scheduleFaultsOnArrival(id int) {
	if s.cfg.Faults == nil {
		return
	}
	if d, ok := s.cfg.Faults.PassengerCancelAfter(id); ok {
		at := s.frame + max(1, d)
		s.cancelDue[at] = append(s.cancelDue[at], id)
	}
}

// scheduleFaultsOnAssign asks the injector whether the driver will
// abandon this fresh assignment, and books the cancellation.
func (s *Simulator) scheduleFaultsOnAssign(taxiID, requestID int) {
	if s.cfg.Faults == nil {
		return
	}
	if d, ok := s.cfg.Faults.DriverCancelAfter(taxiID, requestID, s.frame); ok {
		at := s.frame + max(1, d)
		s.driverDue[at] = append(s.driverDue[at], driverCancelDue{requestID: requestID, taxiID: taxiID})
	}
}
