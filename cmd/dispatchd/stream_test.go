package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stabledispatch/internal/admission"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/obs"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// streamServer builds a full daemon stack — simulator with KPI
// recording and event buffering, admission controller, broadcast hub —
// behind an httptest server, with the hub installed process-wide the
// way main() does it.
func streamServer(t *testing.T, ring int, heartbeat time.Duration) (*httptest.Server, *server) {
	t.Helper()
	taxis := []fleet.Taxi{
		{ID: 0, Pos: geo.Point{X: 10, Y: 10}},
		{ID: 1, Pos: geo.Point{X: 11, Y: 10}},
	}
	events := newEventBuffer(1000)
	kpi := tseries.New(tseries.Config{Capacity: 512})
	hub := stream.NewHub()
	adm := admission.New(admission.Config{Hub: hub})
	s, err := sim.New(sim.Config{
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewNSTDP(),
		SpeedKmH:   60,
		Events:     sim.MultiSink(events, admissionSink(adm)),
		KPI:        kpi,
		Ledger:     prof.New(prof.Config{}),
		Hub:        hub,
		Admission:  adm,
	}, taxis, nil)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	srv := newServer(s).withEvents(events).withAdmission(adm).withStream(hub, ring, heartbeat)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestStreamRejectsUnknownTopic(t *testing.T) {
	ts, _ := streamServer(t, 64, time.Minute)
	resp, err := http.Get(ts.URL + "/v1/stream?topics=kpi,bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestStreamSnapshotThenLive(t *testing.T) {
	ts, srv := streamServer(t, 256, time.Minute)

	// Pre-stream state the snapshot must carry: one admitted request,
	// one dispatched frame.
	resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup: pointJSON{X: 10.5, Y: 10}, Dropoff: pointJSON{X: 14, Y: 10},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	if err := srv.step(); err != nil {
		t.Fatal(err)
	}

	conn, err := http.Get(ts.URL + "/v1/stream?topics=kpi,events,admission,prof")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Body.Close()
	if conn.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", conn.StatusCode)
	}
	if ct := conn.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := stream.NewReader(conn.Body)

	ev, err := r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Name != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", ev.Name)
	}
	var snap streamSnapshot
	if err := json.Unmarshal(ev.Data, &snap); err != nil {
		t.Fatalf("snapshot decode: %v (data %s)", err, ev.Data)
	}
	if snap.Frame != 1 {
		t.Fatalf("snapshot frame = %d, want 1", snap.Frame)
	}
	if len(snap.Topics) != 4 {
		t.Fatalf("snapshot topics = %v, want the 4 subscribed", snap.Topics)
	}
	if len(snap.KPI) != 1 {
		t.Fatalf("snapshot carries %d kpi samples, want the 1 recorded frame", len(snap.KPI))
	}
	if snap.Prof == nil || snap.Prof.Frames != 1 {
		t.Fatalf("snapshot prof = %+v, want the ledger's 1 frame", snap.Prof)
	}
	if snap.Admission == nil || snap.Admission.Accepted != 1 {
		t.Fatalf("snapshot admission = %+v, want accepted=1", snap.Admission)
	}
	if len(snap.Events) == 0 {
		t.Fatal("snapshot carries no lifecycle events despite a dispatched request")
	}

	// Live phase: another request and frame must arrive as admission,
	// events, kpi, and prof messages.
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup: pointJSON{X: 10.2, Y: 10}, Dropoff: pointJSON{X: 13, Y: 10},
	})
	if err := srv.step(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for !(seen["kpi"] && seen["events"] && seen["admission"] && seen["prof"]) {
		select {
		case <-deadline:
			t.Fatalf("live events not all seen: %v", seen)
		default:
		}
		ev, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("live read: %v (seen %v)", err, seen)
		}
		if ev.Name != "" {
			seen[ev.Name] = true
			if ev.ID == 0 {
				t.Fatalf("live event %q missing hub sequence id", ev.Name)
			}
		}
	}
}

func TestStreamHeartbeat(t *testing.T) {
	ts, _ := streamServer(t, 64, 30*time.Millisecond)
	conn, err := http.Get(ts.URL + "/v1/stream?topics=notice")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Body.Close()
	r := stream.NewReader(conn.Body)
	if ev, err := r.ReadEvent(); err != nil || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v, %v", ev, err)
	}
	ev, err := r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.IsHeartbeat() || !strings.Contains(ev.Comment, "heartbeat") {
		t.Fatalf("idle stream produced %+v, want a heartbeat comment", ev)
	}
}

// gateRW is a ResponseWriter whose writes block until the gate opens:
// the server-side stand-in for a consumer that stopped reading.
type gateRW struct {
	h    http.Header
	gate chan struct{}

	mu  sync.Mutex
	buf strings.Builder
}

func (g *gateRW) Header() http.Header { return g.h }
func (g *gateRW) WriteHeader(int)     {}
func (g *gateRW) Flush()              {}
func (g *gateRW) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

func (g *gateRW) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.String()
}

// TestStreamStalledConnectionDropsAndAccounts pins the backpressure
// contract at the HTTP layer: a connection that stops reading fills its
// own ring, drops its own oldest entries (visible in
// stream_dropped_total), never blocks the publisher, and its terminal
// comment carries the drop count.
func TestStreamStalledConnectionDropsAndAccounts(t *testing.T) {
	_, srv := streamServer(t, 8, time.Minute)
	hub := srv.hub
	dropped0 := obs.CounterValue("stream_dropped_total")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &gateRW{h: make(http.Header), gate: make(chan struct{})}
	req := httptest.NewRequest("GET", "/v1/stream?topics=events", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.getStream(w, req)
	}()

	// Wait for the subscription, then flood: the handler is wedged in
	// its first write (the snapshot), so the ring (capacity 8) must
	// overwrite and count drops without ever delaying Publish.
	waitFor(t, func() bool { return hub.Subscribers() == 1 })
	const total = 500
	start := time.Now()
	for i := 0; i < total; i++ {
		hub.Publish(stream.TopicEvents, int64(i), map[string]int{"i": i})
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("publishing %d messages against a stalled connection took %v", total, elapsed)
	}
	waitFor(t, func() bool { return obs.CounterValue("stream_dropped_total") > dropped0 })

	// Release the connection and let it die; the terminal comment must
	// account the drops.
	close(w.gate)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not exit after context cancel")
	}
	out := w.String()
	if !strings.Contains(out, "closed dropped=") {
		t.Fatalf("terminal comment missing from output tail %q", tail(out, 200))
	}
	var gotDropped, gotDelivered uint64
	if _, err := fmt.Sscanf(out[strings.LastIndex(out, "closed dropped="):],
		"closed dropped=%d delivered=%d", &gotDropped, &gotDelivered); err != nil {
		t.Fatalf("terminal comment unparsable: %v (tail %q)", err, tail(out, 200))
	}
	if gotDropped == 0 {
		t.Fatal("stalled connection reports zero drops after flooding an 8-slot ring")
	}
	if got := obs.CounterValue("stream_dropped_total") - dropped0; got < gotDropped {
		t.Fatalf("stream_dropped_total grew by %d, less than the connection's own %d", got, gotDropped)
	}
}

// TestStreamFanout8OneStalled is the acceptance scenario: eight
// concurrent subscribers, one of them wedged, while the frame loop
// ticks — every healthy subscriber sees every frame's kpi sample, and
// stepping stays fast.
func TestStreamFanout8OneStalled(t *testing.T) {
	ts, srv := streamServer(t, 256, time.Minute)

	// The stalled subscriber: connects, never reads. Its ring is its
	// problem; everyone else's feed and the frame loop must not notice.
	stalledCtx, stalledCancel := context.WithCancel(context.Background())
	defer stalledCancel()
	stalledReq, _ := http.NewRequestWithContext(stalledCtx, "GET", ts.URL+"/v1/stream", nil)
	stalledResp, err := http.DefaultClient.Do(stalledReq)
	if err != nil {
		t.Fatal(err)
	}
	defer stalledResp.Body.Close()

	const healthyN = 7
	const frames = 20
	var wg sync.WaitGroup
	errs := make(chan error, healthyN)
	for i := 0; i < healthyN; i++ {
		conn, err := http.Get(ts.URL + "/v1/stream?topics=kpi")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Body.Close()
		wg.Add(1)
		go func(i int, body *stream.Reader) {
			defer wg.Done()
			got := 0
			for got < frames {
				ev, err := body.ReadEvent()
				if err != nil {
					errs <- fmt.Errorf("subscriber %d after %d frames: %w", i, got, err)
					return
				}
				if ev.Name == "kpi" {
					got++
				}
			}
		}(i, stream.NewReader(conn.Body))
	}

	start := time.Now()
	for f := 0; f < frames; f++ {
		if err := srv.step(); err != nil {
			t.Fatal(err)
		}
	}
	stepTime := time.Since(start)

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatalf("healthy subscribers did not all see %d kpi frames", frames)
	}
	// The tiny 2-taxi sim steps in microseconds; a generous bound still
	// catches a publisher blocking on the stalled connection.
	if stepTime > 5*time.Second {
		t.Fatalf("%d frames took %v with a stalled subscriber attached", frames, stepTime)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
