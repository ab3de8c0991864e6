// Package dtrace is the dispatch pipeline's decision-provenance layer:
// a concurrency-safe, bounded record of per-request traces, where each
// trace records the causally-ordered decisions that produced (or
// denied) a dispatch — Gale–Shapley proposals and refusals with both
// sides' preference ranks, dummy-partner threshold checks, share-group
// formation and rejection with the detour bound θ, set-packing swap
// decisions, and the request's assignment/revocation lifecycle from the
// simulator — plus a per-frame stability certificate (a blocking-pair
// scan over the realized matching, see certify.go).
//
// The paper's central claim is stability: no passenger-taxi pair prefers
// each other over their assigned partners. Aggregate metrics (package
// obs) can say how good a matching was; this package answers *why*
// passenger X got taxi Y, which taxis refused, and whether a live
// frame's matching is actually stable — the audit "Uber Stable" and the
// peer-to-peer ridesharing literature run post hoc, kept as an always-on
// runtime surface.
//
// Events store a decision's facts, not prose: Event.Detail renders the
// sentence when the trace is read, so recording formats no strings.
//
// A Recorder belongs to one simulator (sim.Config.Tracer; nil means
// off): the simulator and the dispatchers it hands frames to record
// into it, so two simulators in one process keep disjoint traces and
// certificates, and an untraced run pays one nil check per recording
// site. Memory is bounded by one ring per kind of record: the event
// ring keeps the last capacity events of every request (a request's
// trace is its events still in the ring, oldest first), and frame f's
// certificate and notes live in slot f mod DefaultCertCap, so with
// sequential frames the last DefaultCertCap frames are kept.
package dtrace

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Capacity defaults: how many events the event ring retains, and how
// many frames' certificates and notes the frame-slot ring keeps.
const (
	DefaultCapacity = 1 << 15
	DefaultCertCap  = 1024
)

// Kind labels one decision-trace event.
type Kind string

// Decision kinds recorded by the matching pipeline, plus the simulator
// lifecycle kinds (which reuse the sim event names verbatim: "request",
// "assign", "pickup", "dropoff", "abandon", "cancel", "requeue",
// "rescue").
const (
	// KindCandidates is the dummy-partner threshold check at preference-
	// build time: which taxis are ahead of the request's dummy, with the
	// top-ranked candidates' costs.
	KindCandidates Kind = "candidates"
	// KindPropose is one deferred-acceptance proposal (Algorithm 1 or
	// its taxi-proposing mirror) with its outcome.
	KindPropose Kind = "propose"
	// KindDisplaced marks a request losing its tentative taxi to a rival
	// the taxi prefers.
	KindDisplaced Kind = "displaced"
	// KindGroupFormed / KindGroupRejected are Algorithm 3's feasible-
	// group decisions under the detour bound θ.
	KindGroupFormed   Kind = "group_formed"
	KindGroupRejected Kind = "group_rejected"
	// KindPackPick marks a feasible group chosen by the set packing;
	// KindPackSwap records a local-search exchange move.
	KindPackPick Kind = "pack_pick"
	KindPackSwap Kind = "pack_swap"
)

// Candidate is one taxi ahead of a request's dummy partner at
// preference-build time.
type Candidate struct {
	TaxiID int `json:"taxiId"`
	// Rank is the taxi's position in the request's preference list
	// (0 = most preferred).
	Rank int `json:"rank"`
	// PickupKm is the request-side cost (D(t, r^s) non-sharing; the
	// §V-A average for shared units).
	PickupKm float64 `json:"pickupKm"`
	// NetKm is the taxi-side cost (D(t, r^s) − α·D(r^s, r^d)).
	NetKm float64 `json:"netKm"`
}

// Event is one causally-ordered step of a request's decision trace. Seq
// is a recorder-global monotone sequence number, so interleaving events
// of different requests within a frame stay ordered. An event holds
// facts only; Detail renders them as a sentence.
type Event struct {
	Seq   uint64 `json:"seq"`
	Frame int    `json:"frame"`
	Kind  Kind   `json:"kind"`
	// TaxiID is the taxi the decision concerns, or -1.
	TaxiID int `json:"taxiId"`
	// ReqRank is the taxi's rank in the request's preference list;
	// TaxiRank is the request's rank in the taxi's list (-1 = unknown
	// or not applicable).
	ReqRank  int `json:"reqRank"`
	TaxiRank int `json:"taxiRank"`
	// RivalID and RivalRank identify the competing request (or, for
	// taxi-proposing runs, the competing taxi) a refusal or displacement
	// was decided against, with its rank on the decider's list.
	RivalID   int `json:"rivalId"`
	RivalRank int `json:"rivalRank"`
	// Outcome is the decision result ("accepted", "refused",
	// "displaced", a rejection reason, …).
	Outcome string `json:"outcome,omitempty"`
	// TaxiProposing marks a KindPropose event of the taxi-proposing
	// mirror, recorded from the receiving request's side.
	TaxiProposing bool `json:"taxiProposing,omitempty"`
	// Members lists the request IDs of a share group the event concerns.
	Members []int `json:"members,omitempty"`
	// Candidates carries the top-ranked acceptable taxis of a
	// KindCandidates event.
	Candidates []Candidate `json:"candidates,omitempty"`
	// Acceptable and Pool are the dummy-threshold counts of a
	// KindCandidates event: how many of the frame's Pool taxis sit ahead
	// of the request's dummy partner.
	Acceptable int `json:"acceptable,omitempty"`
	Pool       int `json:"pool,omitempty"`
	// Group holds the distances behind a share-group or packing event;
	// like Members, one value serves the events of every member.
	Group *GroupFacts `json:"group,omitempty"`
}

// GroupFacts are the distances (km) behind one share-group or
// set-packing decision: θ, the best shared route's length, the members'
// solo trips summed, and the detour of Members[Rider], the first rider
// over θ on that route. Pruned marks a pair the sound pair bounds
// rejected before any route search; with Members[k] boarding first,
// GapKm[k] is the distance to the other pickup, TripKm[k] its own solo
// trip and, where Saves[k], BoundKm[k] a lower bound on its detour.
// Added counts the groups a set-packing move brought in.
type GroupFacts struct {
	Theta, RouteKm, SoloKm, DetourKm float64
	Rider, Added                     int
	Pruned                           bool
	GapKm, TripKm, BoundKm           [2]float64
	Saves                            [2]bool
}

// Ev returns an Event of the given kind with every ID and rank field
// initialised to -1 (unknown), ready for call sites to fill in.
func Ev(kind Kind) Event {
	return Event{Kind: kind, TaxiID: -1, ReqRank: -1, TaxiRank: -1, RivalID: -1, RivalRank: -1}
}

// Trace is the snapshot of one request's decision history.
type Trace struct {
	RequestID int     `json:"requestId"`
	Events    []Event `json:"events"`
}

// entry is one slot of the event ring.
type entry struct {
	reqID int
	ev    Event
}

// frameSlot holds one frame's certificate and notes; frame f owns slot
// f mod len(slots) until a frame len(slots) later claims it.
type frameSlot struct {
	frame int
	cert  *Certificate
	notes []string
}

// Recorder is a bounded, concurrency-safe store of per-request decision
// traces and per-frame stability certificates. All methods may be called
// concurrently.
type Recorder struct {
	frame atomic.Int64 // current simulation frame, set by the engine

	mu       sync.Mutex
	seq      uint64  // events recorded; event seq sits at ring index (seq-1) mod capacity
	capacity int     // events the ring retains
	events   []entry // the event ring, grown by append up to capacity

	slots []frameSlot // the frame-slot ring
}

// New returns an empty recorder retaining the last capacity events (a
// non-positive capacity takes DefaultCapacity) and the certificates and
// notes of the last DefaultCertCap frames.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity, slots: make([]frameSlot, DefaultCertCap)}
}

// SetFrame publishes the engine's current frame number; events recorded
// without an explicit frame are stamped with it.
func (r *Recorder) SetFrame(n int) { r.frame.Store(int64(n)) }

// Record appends one event to the request's trace, stamping the
// recorder-global sequence number and (if the event carries no frame)
// the current frame. Once the ring is full, the event overwrites the
// oldest one.
func (r *Recorder) Record(reqID int, e Event) {
	if e.Frame == 0 {
		e.Frame = int(r.frame.Load())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e.Seq = r.seq
	if len(r.events) < r.capacity {
		r.events = append(r.events, entry{reqID, e})
		return
	}
	r.events[(r.seq-1)%uint64(r.capacity)] = entry{reqID, e}
}

// Lifecycle records one simulator lifecycle event (assign, pickup,
// requeue, …) on the request's trace.
func (r *Recorder) Lifecycle(reqID, frame, taxiID int, kind Kind) {
	e := Ev(kind)
	e.Frame = frame
	e.TaxiID = taxiID
	r.Record(reqID, e)
}

// each calls fn on every entry in the ring, oldest first.
func (r *Recorder) each(fn func(*entry)) {
	oldest := int(r.seq % uint64(r.capacity)) // once the ring is full
	if len(r.events) < r.capacity {
		oldest = 0
	}
	for i := range r.events {
		fn(&r.events[(oldest+i)%len(r.events)])
	}
}

// Trace returns a snapshot of one request's retained decision history.
// A nil recorder (tracing off) holds no trace.
func (r *Recorder) Trace(reqID int) (Trace, bool) {
	if r == nil {
		return Trace{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Trace{RequestID: reqID}
	r.each(func(en *entry) {
		if en.reqID == reqID {
			t.Events = append(t.Events, en.ev)
		}
	})
	return t, t.Events != nil
}

// Snapshot returns every retained trace, in order of each request's
// oldest retained event.
func (r *Recorder) Snapshot() []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []Trace{}
	at := map[int]int{} // request ID → index in out
	r.each(func(en *entry) {
		k, ok := at[en.reqID]
		if !ok {
			k = len(out)
			at[en.reqID] = k
			out = append(out, Trace{RequestID: en.reqID})
		}
		out[k].Events = append(out[k].Events, en.ev)
	})
	return out
}

// slot returns the slot frame owns, which may still hold an older frame.
func (r *Recorder) slot(frame int) *frameSlot {
	return &r.slots[uint(frame)%uint(len(r.slots))]
}

// claim returns frame's slot, dropping the older frame it held.
func (r *Recorder) claim(frame int) *frameSlot {
	s := r.slot(frame)
	if s.frame != frame {
		*s = frameSlot{frame: frame}
	}
	return s
}

// AddFrameNote attaches a frame-level annotation (a degraded dispatch, a
// taxi breakdown, a failed certificate) surfaced with the frame's
// stability certificate.
func (r *Recorder) AddFrameNote(frame int, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.claim(frame)
	s.notes = append(s.notes, note)
}

// PutCertificate stores one frame's stability certificate.
func (r *Recorder) PutCertificate(c *Certificate) {
	if c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(c.Frame).cert = c
}

// Certificate returns the stored certificate for one frame, with any
// frame notes attached, or false when the frame is unknown (not yet
// committed, evicted, or the recorder is nil because tracing is off).
func (r *Recorder) Certificate(frame int) (Certificate, bool) {
	if r == nil {
		return Certificate{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slot(frame)
	if s.frame != frame || s.cert == nil {
		return Certificate{}, false
	}
	out := *s.cert
	out.Violations = append([]BlockingPair(nil), s.cert.Violations...)
	out.Notes = append(append([]string(nil), s.cert.Notes...), s.notes...)
	return out, true
}

// CertifiedFrames returns the frames holding a certificate, oldest
// first.
func (r *Recorder) CertifiedFrames() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var frames []int
	for _, s := range r.slots {
		if s.cert != nil {
			frames = append(frames, s.frame)
		}
	}
	slices.Sort(frames)
	return frames
}

// Stats summarises the recorder's occupancy for health surfaces.
type Stats struct {
	// Events counts every event recorded; Evicted those the ring has
	// since overwritten.
	Events       uint64 `json:"events"`
	Evicted      uint64 `json:"evicted"`
	Certificates int    `json:"certificates"`
}

// Stats returns the recorder's current occupancy and loss counters.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Events: r.seq, Evicted: r.seq - uint64(len(r.events))}
	for _, s := range r.slots {
		if s.cert != nil {
			st.Certificates++
		}
	}
	return st
}
