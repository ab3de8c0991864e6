package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/stream"
)

// EventKind labels one simulator event.
type EventKind string

// Event kinds emitted by the engine, in lifecycle order.
const (
	EventRequest EventKind = "request" // a request entered the pending queue
	EventAssign  EventKind = "assign"  // a taxi was dispatched
	EventPickup  EventKind = "pickup"  // the passenger boarded
	EventDropoff EventKind = "dropoff" // the passenger alighted
	EventAbandon EventKind = "abandon" // the passenger gave up waiting

	// Fault-lifecycle kinds. A driver cancellation emits cancel followed
	// by requeue for the same request; a passenger cancellation emits
	// cancel alone; a breakdown emits breakdown for the taxi, then
	// requeue for each revoked assignment and rescue for each orphaned
	// rider.
	EventCancel    EventKind = "cancel"    // an assignment or request was withdrawn before pickup
	EventBreakdown EventKind = "breakdown" // a taxi broke down mid-route (RequestID is -1)
	EventRequeue   EventKind = "requeue"   // a revoked request re-entered the pending queue
	EventRescue    EventKind = "rescue"    // an orphaned rider re-entered the queue from the breakdown position
)

// Event is one step of a request's lifecycle, suitable for JSONL replay
// and visualisation tooling.
type Event struct {
	Frame     int       `json:"frame"`
	Kind      EventKind `json:"kind"`
	RequestID int       `json:"requestId"`
	// TaxiID is set from assignment onward (-1 before).
	TaxiID int `json:"taxiId"`
	// Pos is where the event happened: the pickup location for request
	// and assign events, the taxi's stop position for pickup/dropoff.
	Pos geo.Point `json:"pos"`
}

// EventSink receives engine events as they happen. Record is called
// synchronously from Step, so implementations should be fast; the
// JSONL writer below buffers through the provided io.Writer.
type EventSink interface {
	Record(Event)
}

// EventSinkFunc adapts a function to the EventSink interface.
type EventSinkFunc func(Event)

// Record implements EventSink.
func (f EventSinkFunc) Record(e Event) { f(e) }

var _ EventSink = EventSinkFunc(nil)

// MultiSink fans one event stream out to several sinks, calling them in
// argument order. Nil sinks are skipped, so callers can compose optional
// sinks without branching; with zero or one live sink the composition
// collapses to nil or the sink itself.
func MultiSink(sinks ...EventSink) EventSink {
	live := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiSink []EventSink

// Record implements EventSink.
func (m multiSink) Record(e Event) {
	for _, s := range m {
		s.Record(e)
	}
}

// JSONLSink streams events as JSON lines. Errors are sticky: the first
// write failure is kept and reported by Err, and later events are
// dropped — a broken sink must not take the simulation down.
type JSONLSink struct {
	enc *json.Encoder
	err error
}

var _ EventSink = (*JSONLSink)(nil)

// NewJSONLSink returns a sink writing one JSON object per line to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Record implements EventSink.
func (s *JSONLSink) Record(e Event) {
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(e); err != nil {
		s.err = fmt.Errorf("sim: event sink: %w", err)
		obsEventSinkErrors.Inc()
	}
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// ReadJSONL parses a JSONL event stream back into events (the inverse of
// JSONLSink, for replay tooling and tests).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var events []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("sim: read events: %w", err)
		}
		events = append(events, e)
	}
	return events, nil
}

// emit counts an event and forwards it to the configured sink, the
// decision-trace layer, the flight recorder, and the hub.
func (s *Simulator) emit(e Event) {
	if c := obsEvents[e.Kind]; c != nil {
		c.Inc()
	}
	if s.cfg.Events != nil {
		s.cfg.Events.Record(e)
	}
	if rec := dtrace.Active(); rec != nil {
		s.traceEvent(rec, e)
	}
	if r := s.cfg.Recorder; r != nil {
		r.RecordEvent(int64(e.Frame), e)
	}
	// Live telemetry: every lifecycle event on the events topic, and a
	// breakdown additionally as an operator notice. Both gated on an
	// interested subscriber, and the hub never blocks — a wedged stream
	// consumer drops its own entries instead of slowing this frame.
	hub := s.cfg.Hub
	if hub.Wants(stream.TopicEvents) {
		hub.Publish(stream.TopicEvents, int64(e.Frame), e)
	}
	if e.Kind == EventBreakdown && hub.Wants(stream.TopicNotices) {
		hub.Publish(stream.TopicNotices, int64(e.Frame), stream.Notice{
			Kind:   "breakdown",
			Frame:  int64(e.Frame),
			Detail: fmt.Sprintf("taxi %d broke down mid-route", e.TaxiID),
		})
	}
}
