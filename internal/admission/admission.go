// Package admission is the dispatch daemon's front door under load: a
// bounded intake queue that decouples accepting a ride request from the
// frame loop that dispatches it, plus the admission control that sheds
// excess traffic instead of letting it pile up in goroutines blocked on
// the simulator lock.
//
// The contract with the serving layer:
//
//   - Admit allocates the request ID and appends the request to the
//     queue under one lock acquisition, so queue order IS arrival order.
//     It never blocks on the simulator: a POST handler holding only the
//     controller's mutex returns in microseconds even while a
//     paper-scale dispatch frame is solving.
//   - TakeBatch removes everything queued, in admission order. The
//     serving layer calls it at each frame boundary and injects the
//     batch into the simulator before stepping, so every admitted
//     request joins the pending queue of the next frame exactly as if
//     it had been injected synchronously — dispatch output is unchanged,
//     only the lock coupling is gone (see DESIGN.md for the
//     arrival-order-preservation argument).
//   - Load shedding is fail-fast: when the queue is at capacity or the
//     in-flight count is at its cap, Admit returns a *ShedError the
//     handler maps to 429 Too Many Requests with a Retry-After hint.
//     Once BeginDrain is called (shutdown), every Admit sheds with
//     ReasonDraining (503) while the already-admitted tail flushes.
//
// The controller keeps no record of a request once TakeBatch hands it
// out: the simulator is the one record of its life. The in-flight count
// bounding the total work the daemon holds is the queue length plus the
// unfinished requests the simulator reported at the last Settle, plus
// every batch taken since.
//
// WritePrometheus renders the controller's own series:
// admission_accepted_total, admission_shed_total{reason=...},
// admission_queue_depth, admission_inject_failures_total, and the
// admission_queue_wait_seconds histogram (enqueue to injection). Two
// controllers in one process never share a count.
package admission

import (
	"fmt"
	"sync"
	"time"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/obs"
	"stabledispatch/internal/stream"
)

// Defaults for Config zero values.
const (
	// DefaultQueueCap bounds the intake queue: one frame's worth of
	// arrivals at well beyond paper scale (the New York trace peaks
	// around 100 requests/minute; 4096 queued is a 40× burst).
	DefaultQueueCap = 4096
	// DefaultRetryAfter is the shed hint when the config leaves it zero.
	DefaultRetryAfter = time.Second
)

// Reason classifies why a request was shed.
type Reason string

// Shed reasons, exported as admission_shed_total{reason=...} labels.
const (
	ReasonQueueFull Reason = "queue_full"   // intake queue at capacity
	ReasonInflight  Reason = "inflight_cap" // in-flight count at capacity
	ReasonDraining  Reason = "draining"     // shutdown in progress
)

// ShedError reports a load-shedding decision. Handlers map it to 429
// (503 for ReasonDraining) and surface RetryAfter as the Retry-After
// header.
type ShedError struct {
	Reason     Reason
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: request shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Config parameterises a Controller.
type Config struct {
	// QueueCap bounds the intake queue (requests accepted but not yet
	// injected into a frame). ≤ 0 means DefaultQueueCap.
	QueueCap int
	// MaxInflight bounds admitted requests that have not yet reached a
	// terminal lifecycle state (queued + pending + assigned + riding).
	// 0 means unlimited.
	MaxInflight int
	// RetryAfter is the hint returned with every shed. The serving
	// layer sets it to its frame cadence when auto-ticking: the queue
	// cannot drain before the next frame boundary, so retrying sooner
	// is wasted work. ≤ 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// Hub, when non-nil, receives every front-door decision on the
	// admission topic.
	Hub *stream.Hub

	// now overrides the clock in tests.
	now func() time.Time
}

// Controller is the admission front door. All methods are safe for
// concurrent use; none of them ever blocks on anything but the
// controller's own mutex, which is held only briefly (Admit and Settle
// are O(1); TakeBatch hands the queue over by swapping slices and
// observes each taken request's wait once).
type Controller struct {
	mu    sync.Mutex
	cfg   Config
	queue []fleet.Request
	// enqueued[i] is when queue[i] was admitted.
	enqueued []time.Time
	nextID   int
	// inSim counts the unfinished requests the simulator held at the
	// last Settle plus every batch taken since.
	inSim    int
	draining bool

	shed        map[Reason]int // requests shed, by reason
	injectFails int
	wait        *obs.Histogram // enqueue→injection latency
}

// New builds a Controller.
func New(cfg Config) *Controller {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Controller{
		cfg:  cfg,
		shed: make(map[Reason]int),
		wait: obs.NewHistogram(),
	}
}

// Decision is the live-stream payload of one front-door outcome,
// published on the admission topic: per-request accept/shed decisions
// and per-frame intake summaries, each carrying the queue and in-flight
// gauges at decision time.
type Decision struct {
	Kind string `json:"kind"` // "accepted", "shed", or "intake"
	// ID is the accepted request's ID (-1 for shed and intake).
	ID int `json:"id"`
	// Reason is the shed reason ("" otherwise).
	Reason Reason `json:"reason,omitempty"`
	// Batch is the intake summary's injected-batch size (0 otherwise).
	Batch      int `json:"batch,omitempty"`
	QueueDepth int `json:"queueDepth"`
	Inflight   int `json:"inflight"`
}

// publish emits one front-door decision on the live stream. Called
// outside c.mu: the hub has its own locks and must never nest inside
// the controller's (and a publish must never extend the admission
// critical section).
func (c *Controller) publish(d Decision) {
	if c.cfg.Hub.Wants(stream.TopicAdmission) {
		c.cfg.Hub.Publish(stream.TopicAdmission, -1, d)
	}
}

// Admit runs admission control on r and, if accepted, allocates its ID,
// stamps it into r, and enqueues it for the next frame boundary. The
// returned ID is the request's identity for the rest of its life. On
// shed the error is a *ShedError and no state changes.
func (c *Controller) Admit(r fleet.Request) (int, error) {
	c.mu.Lock()
	switch {
	case c.draining:
		return 0, c.shedLocked(ReasonDraining)
	case len(c.queue) >= c.cfg.QueueCap:
		return 0, c.shedLocked(ReasonQueueFull)
	case c.cfg.MaxInflight > 0 && c.inflightLocked() >= c.cfg.MaxInflight:
		return 0, c.shedLocked(ReasonInflight)
	}
	id := c.nextID
	c.nextID++
	r.ID = id
	c.queue = append(c.queue, r)
	c.enqueued = append(c.enqueued, c.cfg.now())
	depth, inflight := len(c.queue), c.inflightLocked()
	c.mu.Unlock()
	c.publish(Decision{Kind: "accepted", ID: id, QueueDepth: depth, Inflight: inflight})
	return id, nil
}

// shedLocked counts one shed, releases c.mu, publishes the decision,
// and returns the error Admit hands the caller.
func (c *Controller) shedLocked(reason Reason) error {
	c.shed[reason]++
	depth, inflight := len(c.queue), c.inflightLocked()
	c.mu.Unlock()
	c.publish(Decision{Kind: "shed", ID: -1, Reason: reason, QueueDepth: depth, Inflight: inflight})
	return &ShedError{Reason: reason, RetryAfter: c.cfg.RetryAfter}
}

// TakeBatch removes and returns every queued request in admission
// order, observing each one's queue wait. The serving layer calls it at
// each frame boundary, injects the batch, then steps the frame; the
// batch counts as in flight until the next Settle recounts it. A
// non-empty take publishes one intake summary on the admission stream
// topic.
func (c *Controller) TakeBatch() []fleet.Request {
	c.mu.Lock()
	if len(c.queue) == 0 {
		c.mu.Unlock()
		return nil
	}
	now := c.cfg.now()
	for _, t := range c.enqueued {
		c.wait.Observe(now.Sub(t).Seconds())
	}
	batch := c.queue
	c.queue, c.enqueued = nil, c.enqueued[:0]
	c.inSim += len(batch)
	inflight := c.inflightLocked()
	c.mu.Unlock()
	c.publish(Decision{Kind: "intake", ID: -1, Batch: len(batch), Inflight: inflight})
	return batch
}

// Queued reports whether request id is admitted and still waiting for
// its frame boundary.
func (c *Controller) Queued(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.indexLocked(id) >= 0
}

// Withdraw takes a still-queued request out of the queue, the rest
// keeping their admission order, and frees its in-flight slot; false
// when id is not queued.
func (c *Controller) Withdraw(id int) (fleet.Request, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.indexLocked(id)
	if i < 0 {
		return fleet.Request{}, false
	}
	r := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	c.enqueued = append(c.enqueued[:i], c.enqueued[i+1:]...)
	return r, true
}

// indexLocked returns id's queue position, or -1. Callers hold c.mu.
func (c *Controller) indexLocked(id int) int {
	for i, r := range c.queue {
		if r.ID == id {
			return i
		}
	}
	return -1
}

// BeginDrain stops admission permanently: every later Admit sheds with
// ReasonDraining. Already-queued requests stay queued for the final
// flush; the in-flight count keeps settling frame by frame.
func (c *Controller) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// QueueDepth returns the number of admitted requests awaiting frame
// injection.
func (c *Controller) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Inflight returns the number of admitted requests that had not reached
// a terminal lifecycle state at the last Settle: the queue plus the
// simulator's unfinished requests.
func (c *Controller) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflightLocked()
}

func (c *Controller) inflightLocked() int { return len(c.queue) + c.inSim }

// Settle records n, the requests the simulator holds that have not
// reached a terminal state (pending plus assigned plus riding). The
// serving layer calls it after every frame and every cancellation, so a
// finished request frees its slot at the next frame boundary.
func (c *Controller) Settle(n int) {
	c.mu.Lock()
	c.inSim = n
	c.mu.Unlock()
}

// Accepted returns the number of requests admitted so far.
func (c *Controller) Accepted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextID
}

// Shed returns the number of requests shed so far, for any reason.
func (c *Controller) Shed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.shed {
		n += k
	}
	return n
}

// NoteInjectFailure counts a request the serving layer failed to inject
// into the simulator. The controller is the sole ID allocator so this
// cannot happen in practice; the next Settle releases its slot.
func (c *Controller) NoteInjectFailure() {
	c.mu.Lock()
	c.injectFails++
	c.mu.Unlock()
}

// WritePrometheus writes the controller's series to p, every count
// read from the controller's own state.
func (c *Controller) WritePrometheus(p *obs.Writer) {
	c.mu.Lock()
	p.Counter("admission_accepted_total", uint64(c.nextID))
	for _, r := range []Reason{ReasonQueueFull, ReasonInflight, ReasonDraining} {
		p.Counter(`admission_shed_total{reason="`+string(r)+`"}`, uint64(c.shed[r]))
	}
	p.Gauge("admission_queue_depth", float64(len(c.queue)))
	p.Counter("admission_inject_failures_total", uint64(c.injectFails))
	c.mu.Unlock()
	p.Histogram("admission_queue_wait_seconds", c.wait)
}
