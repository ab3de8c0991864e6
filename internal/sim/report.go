package sim

// RequestOutcome records one request's trip through the system.
type RequestOutcome struct {
	ID           int
	ArrivalFrame int
	// AssignFrame is the frame a taxi was dispatched, or -1 if never.
	AssignFrame int
	// PickupFrame is the frame the passenger boarded, or -1.
	PickupFrame int
	// DropoffFrame is the frame the passenger alighted, or -1.
	DropoffFrame int
	// TaxiID is the serving taxi, or -1.
	TaxiID int
	// PassengerDiss is the paper's passenger-dissatisfaction metric,
	// recorded at assignment time (km).
	PassengerDiss float64
	// Served reports whether the request was ever assigned a taxi.
	Served bool
	// Abandoned reports whether the passenger gave up waiting (the
	// simulator's patience bound expired before any dispatch).
	Abandoned bool
	// Cancelled reports whether the request was withdrawn before pickup
	// (by the passenger, via the cancellation API, or by an injected
	// fault).
	Cancelled bool
	// Rescued reports whether the rider was orphaned by a mid-route
	// breakdown and re-injected as a rescue request.
	Rescued bool
	// Requeues counts how many times the request re-entered the pending
	// queue after a revoked assignment or a rescue.
	Requeues int
}

// DispatchDelay returns the paper's dispatch-delay metric in frames
// (minutes), and false for unserved requests.
func (o RequestOutcome) DispatchDelay() (float64, bool) {
	if !o.Served {
		return 0, false
	}
	return float64(o.AssignFrame - o.ArrivalFrame), true
}

// EpisodeOutcome records one taxi busy period (idle → busy → idle) and
// its taxi-dissatisfaction metric.
type EpisodeOutcome struct {
	TaxiID     int
	StartFrame int
	EndFrame   int
	// Requests is how many requests the episode served.
	Requests int
	// Dissatisfaction is D_ck(t) − (α+1)·Σ D(r^s, r^d) (km); for a
	// solo ride it equals D(t, r^s) − α·D(r^s, r^d).
	Dissatisfaction float64
}

// Report is the outcome of a simulation run.
type Report struct {
	Algorithm   string
	Frames      int
	Requests    []RequestOutcome
	Episodes    []EpisodeOutcome
	Assignments []AssignmentOutcome
	// EventSinkErr is the sticky error of the configured event sink, if
	// the sink exposes Err() error (JSONLSink does) and it failed
	// mid-run. The simulation itself still completed; only the emitted
	// event stream is incomplete.
	EventSinkErr error
}

// DispatchDelays returns the delay (minutes) of every served request.
func (r *Report) DispatchDelays() []float64 {
	var out []float64
	for _, o := range r.Requests {
		if d, ok := o.DispatchDelay(); ok {
			out = append(out, d)
		}
	}
	return out
}

// PassengerDissatisfactions returns the passenger metric of every served
// request (km).
func (r *Report) PassengerDissatisfactions() []float64 {
	var out []float64
	for _, o := range r.Requests {
		if o.Served {
			out = append(out, o.PassengerDiss)
		}
	}
	return out
}

// TaxiDissatisfactions returns the taxi metric of every dispatch
// decision (km), per the paper's §IV-A/§V-A formulas.
func (r *Report) TaxiDissatisfactions() []float64 {
	var out []float64
	for _, a := range r.Assignments {
		out = append(out, a.Dissatisfaction)
	}
	return out
}

// ServedCount returns how many requests were assigned a taxi.
func (r *Report) ServedCount() int {
	n := 0
	for _, o := range r.Requests {
		if o.Served {
			n++
		}
	}
	return n
}

// UnservedCount returns how many requests never got a taxi.
func (r *Report) UnservedCount() int {
	return len(r.Requests) - r.ServedCount()
}

// AbandonedCount returns how many passengers gave up waiting.
func (r *Report) AbandonedCount() int {
	n := 0
	for _, o := range r.Requests {
		if o.Abandoned {
			n++
		}
	}
	return n
}

// CancelledCount returns how many requests were withdrawn before
// pickup.
func (r *Report) CancelledCount() int {
	n := 0
	for _, o := range r.Requests {
		if o.Cancelled {
			n++
		}
	}
	return n
}

// RescuedCount returns how many riders were orphaned by a breakdown and
// re-injected as rescue requests.
func (r *Report) RescuedCount() int {
	n := 0
	for _, o := range r.Requests {
		if o.Rescued {
			n++
		}
	}
	return n
}

// RequeueCount returns the total number of re-dispatch attempts across
// all requests (requeues after driver cancellations and rescues).
func (r *Report) RequeueCount() int {
	n := 0
	for _, o := range r.Requests {
		n += o.Requeues
	}
	return n
}

// SharedRideCount returns how many dispatch decisions left their taxi
// carrying more than one request (AssignmentOutcome.Shared), the same
// count as the KPI ring's shared_rides. Episodes would hide most
// insertion sharing: a busy taxi takes many riders in one episode.
func (r *Report) SharedRideCount() int {
	n := 0
	for _, a := range r.Assignments {
		if a.Shared {
			n++
		}
	}
	return n
}

// AssignmentOutcome records one dispatch decision and its
// taxi-dissatisfaction metric.
type AssignmentOutcome struct {
	TaxiID int
	Frame  int
	// Requests is how many new requests this decision assigned.
	Requests int
	// Shared reports whether the taxi carries more than one request
	// after this decision.
	Shared bool
	// Dissatisfaction is the added driving minus (α+1)·added trips
	// (km): D(t, r^s) − α·D(r^s, r^d) for a solo dispatch from idle,
	// D_ck(t) − (α+1)·Σ D(r^s, r^d) for a shared group, the marginal
	// equivalent for an insertion into a busy taxi.
	Dissatisfaction float64
}
