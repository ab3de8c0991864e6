package sim

import (
	"bytes"
	"strings"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

func TestEventLifecycle(t *testing.T) {
	reqs := []fleet.Request{{
		ID: 1, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 5}, Frame: 0,
	}}
	var events []Event
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Events = EventSinkFunc(func(e Event) { events = append(events, e) })
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantKinds := []EventKind{EventRequest, EventAssign, EventPickup, EventDropoff}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events %v, want %d", len(events), events, len(wantKinds))
	}
	prevFrame := -1
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if e.RequestID != 1 {
			t.Errorf("event %d request = %d", i, e.RequestID)
		}
		if e.Frame < prevFrame {
			t.Errorf("events out of order: %v", events)
		}
		prevFrame = e.Frame
	}
	if events[0].TaxiID != -1 || events[1].TaxiID != 0 {
		t.Errorf("taxi IDs = %d, %d", events[0].TaxiID, events[1].TaxiID)
	}
	if events[3].Pos != (geo.Point{X: 5}) {
		t.Errorf("dropoff pos = %v", events[3].Pos)
	}
}

func TestEventAbandon(t *testing.T) {
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}}
	var events []Event
	cfg := simpleConfig(nearestDispatcher{})
	cfg.PatienceFrames = 2
	cfg.DrainFrames = 10
	cfg.Events = EventSinkFunc(func(e Event) { events = append(events, e) })
	s, err := New(cfg, nil /* no taxis */, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(events) != 2 || events[1].Kind != EventAbandon {
		t.Fatalf("events = %v, want request then abandon", events)
	}
	if events[1].Frame != 2 {
		t.Errorf("abandon frame = %d, want 2", events[1].Frame)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	want := []Event{
		{Frame: 0, Kind: EventRequest, RequestID: 1, TaxiID: -1, Pos: geo.Point{X: 1}},
		{Frame: 3, Kind: EventAssign, RequestID: 1, TaxiID: 7, Pos: geo.Point{X: 1}},
	}
	for _, e := range want {
		sink.Record(e)
	}
	if sink.Err() != nil {
		t.Fatalf("sink error: %v", sink.Err())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip %d -> %d events", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(failingWriter{})
	sink.Record(Event{Kind: EventRequest})
	if sink.Err() == nil {
		t.Fatal("expected sticky error")
	}
	// Later records must not panic or clear the error.
	sink.Record(Event{Kind: EventAssign})
	if sink.Err() == nil {
		t.Fatal("error cleared")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "disk full" }

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{broken")); err == nil {
		t.Error("accepted broken JSONL")
	}
}

func TestFullSimulationEventStream(t *testing.T) {
	// Every served request must produce exactly request, assign,
	// pickup, dropoff; abandoned ones request + abandon.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 3}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 4}, Frame: 1},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Events = sink
	s, err := New(cfg, []fleet.Taxi{{ID: 0}, {ID: 1, Pos: geo.Point{X: 1}}}, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	perKind := make(map[EventKind]int)
	for _, e := range events {
		perKind[e.Kind]++
	}
	served := rep.ServedCount()
	if perKind[EventRequest] != 2 || perKind[EventAssign] != served ||
		perKind[EventPickup] != served || perKind[EventDropoff] != served {
		t.Errorf("event counts = %v for %d served", perKind, served)
	}
}

func TestRunSurfacesEventSinkError(t *testing.T) {
	reqs := []fleet.Request{{
		ID: 1, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 5}, Frame: 0,
	}}
	sink := NewJSONLSink(failingWriter{})
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Events = sink
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.EventSinkErr == nil {
		t.Fatal("Report.EventSinkErr = nil, want the sink's sticky error")
	}
	if !strings.Contains(rep.EventSinkErr.Error(), "disk full") {
		t.Errorf("EventSinkErr = %v, want the underlying write error", rep.EventSinkErr)
	}
	// A healthy sink reports no error.
	var buf bytes.Buffer
	cfg.Events = NewJSONLSink(&buf)
	s2, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep2, err := s2.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep2.EventSinkErr != nil {
		t.Errorf("healthy sink EventSinkErr = %v, want nil", rep2.EventSinkErr)
	}
}
