package dispatch

import (
	"fmt"
	"log/slog"
	"time"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/sim"
)

// DefaultFrameDeadline bounds one frame's dispatch compute when
// NewResilient is given a non-positive deadline. The paper's frames are
// one minute; half a second leaves the engine far ahead of real time
// even on the New York workload.
const DefaultFrameDeadline = 500 * time.Millisecond

// Resilient wraps any Dispatcher with a per-frame compute deadline and
// panic recovery, degrading to a cheap fallback (Greedy by default)
// when the primary overruns, panics, or errors. A pathological frame —
// say a stable-matching enumeration blowing up on adversarial ties — is
// then a degraded frame and a counter increment instead of a stalled
// pipeline, so tail frame latency stays bounded by the deadline plus
// the fallback's (near-linear) cost.
type Resilient struct {
	primary  sim.Dispatcher
	fallback sim.Dispatcher
	deadline time.Duration
}

var _ sim.Dispatcher = (*Resilient)(nil)

// NewResilient wraps primary with deadline-bounded, panic-safe
// dispatch. A nil fallback defaults to Greedy; a non-positive deadline
// defaults to DefaultFrameDeadline.
func NewResilient(primary, fallback sim.Dispatcher, deadline time.Duration) *Resilient {
	if fallback == nil {
		fallback = NewGreedy()
	}
	if deadline <= 0 {
		deadline = DefaultFrameDeadline
	}
	return &Resilient{primary: primary, fallback: fallback, deadline: deadline}
}

// Name implements sim.Dispatcher.
func (d *Resilient) Name() string { return d.primary.Name() + "+failsafe" }

// dispatchResult carries one dispatcher outcome across the deadline
// boundary.
type dispatchResult struct {
	out      []fleet.Assignment
	err      error
	panicked bool
}

// Dispatch implements sim.Dispatcher. The primary runs in its own
// goroutine; if it misses the deadline its eventual result is discarded
// (the Frame is an immutable snapshot, so a straggler finishing late is
// harmless) and the fallback decides the frame instead.
func (d *Resilient) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	ch := make(chan dispatchResult, 1)
	go func() {
		ch <- safeDispatch(d.primary, f)
	}()
	timer := time.NewTimer(d.deadline)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err == nil {
			return res.out, nil
		}
		reason := "error"
		if res.panicked {
			reason = "panic"
		}
		return d.degrade(f, reason, res.err)
	case <-timer.C:
		return d.degrade(f, "deadline", fmt.Errorf("dispatch: %s exceeded %v", d.primary.Name(), d.deadline))
	}
}

// degrade counts the degraded frame, notes it on the frame (the
// simulator counts it, fires its flight recorder, and publishes a
// notice), and reruns the frame with the fallback.
func (d *Resilient) degrade(f *sim.Frame, reason string, cause error) ([]fleet.Assignment, error) {
	if c := obsDegraded[reason]; c != nil {
		c.Inc()
	}
	slog.Warn("dispatch: degraded frame",
		"frame", f.Number, "primary", d.primary.Name(),
		"fallback", d.fallback.Name(), "reason", reason, "err", cause)
	traceDegrade(f.Number, d.primary.Name(), d.fallback.Name(), reason, cause)
	f.NoteDegraded(fmt.Sprintf("%s degraded to %s (%s): %v", d.primary.Name(), d.fallback.Name(), reason, cause))
	res := safeDispatch(d.fallback, f)
	if res.err != nil {
		return nil, fmt.Errorf("dispatch: fallback %s after %s degrade: %w", d.fallback.Name(), reason, res.err)
	}
	return res.out, nil
}

// safeDispatch runs one dispatcher with panic recovery.
func safeDispatch(disp sim.Dispatcher, f *sim.Frame) (res dispatchResult) {
	defer func() {
		if r := recover(); r != nil {
			res = dispatchResult{err: fmt.Errorf("dispatch: %s panicked: %v", disp.Name(), r), panicked: true}
		}
	}()
	out, err := disp.Dispatch(f)
	return dispatchResult{out: out, err: err}
}
