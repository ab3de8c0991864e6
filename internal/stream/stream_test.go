package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"stabledispatch/internal/obs"
)

func drainAll(s *Sub) []Msg {
	var out []Msg
	for {
		got := s.TakeBatch(nil)
		if len(got) == 0 {
			return out
		}
		out = append(out, got...)
	}
}

func TestPublishSubscribe(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(16, TopicKPI)
	defer sub.Close()

	if !h.Wants(TopicKPI) {
		t.Fatal("Wants(kpi) = false with a kpi subscriber attached")
	}
	if h.Wants(TopicEvents) {
		t.Fatal("Wants(events) = true with no events subscriber")
	}

	seq := h.Publish(TopicKPI, 7, map[string]int{"frame": 7})
	if seq == 0 {
		t.Fatal("Publish returned 0 with a live subscriber")
	}
	if got := h.Publish(TopicEvents, 7, "ignored"); got != 0 {
		t.Fatalf("Publish to unwatched topic returned seq %d, want 0 (skip)", got)
	}

	msgs := sub.TakeBatch(nil)
	if len(msgs) != 1 {
		t.Fatalf("TakeBatch returned %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if m.Topic != TopicKPI || m.Seq != seq || m.Frame != 7 {
		t.Fatalf("unexpected message %+v", m)
	}
	var decoded map[string]int
	if err := json.Unmarshal(m.Data, &decoded); err != nil || decoded["frame"] != 7 {
		t.Fatalf("payload %q did not round-trip: %v", m.Data, err)
	}
}

func TestTopicFilter(t *testing.T) {
	h := NewHub()
	kpiOnly := h.Subscribe(8, TopicKPI)
	all := h.Subscribe(8)
	defer kpiOnly.Close()
	defer all.Close()

	h.Publish(TopicKPI, 1, "k")
	h.Publish(TopicEvents, 1, "e")
	h.Publish(TopicNotices, 1, "n")

	if got := kpiOnly.TakeBatch(nil); len(got) != 1 || got[0].Topic != TopicKPI {
		t.Fatalf("filtered subscriber got %v, want exactly the kpi message", got)
	}
	if got := all.TakeBatch(nil); len(got) != 3 {
		t.Fatalf("unfiltered subscriber got %d messages, want 3", len(got))
	}
}

func TestCloseDetaches(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(8, TopicKPI)
	sub.Close()
	sub.Close() // idempotent
	if h.Subscribers() != 0 {
		t.Fatalf("Subscribers() = %d after Close, want 0", h.Subscribers())
	}
	if h.Wants(TopicKPI) {
		t.Fatal("Wants(kpi) still true after the only subscriber closed")
	}
	if seq := h.Publish(TopicKPI, 1, "x"); seq != 0 {
		t.Fatalf("Publish after close returned seq %d, want 0", seq)
	}
}

// TestActiveHubGating pins the gate producers publish behind: a nil hub
// (streaming off) wants no topic, and a live hub wants exactly the
// topics someone subscribed to.
func TestActiveHubGating(t *testing.T) {
	var off *Hub
	for _, topic := range Topics {
		if off.Wants(topic) {
			t.Fatalf("nil hub wants %q", topic)
		}
	}

	h := NewHub()
	sub := h.Subscribe(4, TopicKPI)
	defer sub.Close()
	if !h.Wants(TopicKPI) || h.Wants(TopicEvents) {
		t.Fatal("live hub gating does not follow its subscriptions")
	}
	h.Publish(TopicKPI, 2, "live")
	if got := sub.TakeBatch(nil); len(got) != 1 {
		t.Fatalf("Publish delivered %d messages, want 1", len(got))
	}
}

// TestSlowSubscriberDropsOwnEntriesOnly is the backpressure contract
// pin, run under -race in CI: a stalled subscriber loses exactly its
// own oldest entries (its drop counter plus its deliveries balance
// against the feed), healthy subscribers concurrently draining see the
// complete feed in order, and Publish never blocks on the stalled ring.
func TestSlowSubscriberDropsOwnEntriesOnly(t *testing.T) {
	h := NewHub()
	const (
		total    = 5000
		stallCap = 32
	)
	dropped0 := obs.CounterValue("stream_dropped_total")

	stalled := h.Subscribe(stallCap, TopicEvents)
	defer stalled.Close()

	type healthyView struct {
		sub  *Sub
		msgs []Msg
	}
	// Healthy rings get full-feed capacity: they drain concurrently, but
	// the zero-drop pin must not depend on scheduler luck against a
	// publisher running flat out.
	healthy := make([]*healthyView, 3)
	for i := range healthy {
		healthy[i] = &healthyView{sub: h.Subscribe(total, TopicEvents)}
	}

	// Healthy consumers drain concurrently with the publisher.
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, hv := range healthy {
		wg.Add(1)
		go func(hv *healthyView) {
			defer wg.Done()
			for {
				hv.msgs = append(hv.msgs, hv.sub.TakeBatch(nil)...)
				select {
				case <-hv.sub.Wait():
				case <-done:
					hv.msgs = append(hv.msgs, hv.sub.TakeBatch(nil)...)
					return
				}
			}
		}(hv)
	}

	start := time.Now()
	for i := 0; i < total; i++ {
		if h.Publish(TopicEvents, int64(i), i) == 0 {
			t.Fatalf("publish %d skipped with live subscribers", i)
		}
	}
	elapsed := time.Since(start)
	close(done)
	wg.Wait()

	// The stalled ring never blocked the publisher: 5000 publishes with
	// a wedged consumer must complete in interactive time (each is one
	// JSON encode plus four O(1) ring writes; a second is three orders
	// of magnitude of slack, not a perf assertion).
	if elapsed > 5*time.Second {
		t.Fatalf("publishing %d messages took %v: a stalled subscriber is back-pressuring Publish", total, elapsed)
	}

	// Healthy subscribers: complete feed, in order, zero drops.
	for i, hv := range healthy {
		hv.sub.Close()
		if hv.sub.Dropped() != 0 {
			t.Fatalf("healthy subscriber %d dropped %d messages", i, hv.sub.Dropped())
		}
		if len(hv.msgs) != total {
			t.Fatalf("healthy subscriber %d saw %d/%d messages", i, len(hv.msgs), total)
		}
		for j := 1; j < len(hv.msgs); j++ {
			if hv.msgs[j].Seq <= hv.msgs[j-1].Seq {
				t.Fatalf("healthy subscriber %d saw out-of-order seqs %d after %d", i, hv.msgs[j].Seq, hv.msgs[j-1].Seq)
			}
		}
	}

	// Stalled subscriber: everything it did not drop is still buffered,
	// and it holds exactly the newest stallCap entries — drops were its
	// own oldest, nobody else's.
	kept := drainAll(stalled)
	if len(kept) != stallCap {
		t.Fatalf("stalled ring holds %d entries, want exactly its capacity %d", len(kept), stallCap)
	}
	wantDropped := uint64(total - stallCap)
	if stalled.Dropped() != wantDropped {
		t.Fatalf("stalled subscriber dropped %d, want %d (drops must balance: published - capacity)", stalled.Dropped(), wantDropped)
	}
	for i, m := range kept {
		if wantFrame := int64(total - stallCap + i); m.Frame != wantFrame {
			t.Fatalf("stalled ring entry %d has frame %d, want %d (must keep the newest tail)", i, m.Frame, wantFrame)
		}
	}

	// Process-wide accounting: the obs counter grew by exactly the
	// stalled subscriber's drops.
	if got := obs.CounterValue("stream_dropped_total") - dropped0; got != wantDropped {
		t.Fatalf("stream_dropped_total grew by %d, want %d", got, wantDropped)
	}
}

func TestConcurrentPublishersAndSubscribers(t *testing.T) {
	h := NewHub()
	const (
		publishers = 4
		perPub     = 500
	)
	sub := h.Subscribe(publishers*perPub, TopicEvents)
	defer sub.Close()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				h.Publish(TopicEvents, int64(p), i)
			}
		}(p)
	}
	// Churn subscribers while publishing to race Subscribe/Close against
	// Publish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := h.Subscribe(4, TopicEvents)
			s.TakeBatch(nil)
			s.Close()
		}
	}()
	wg.Wait()

	got := drainAll(sub)
	if len(got) != publishers*perPub {
		t.Fatalf("big subscriber saw %d messages, want %d", len(got), publishers*perPub)
	}
}

func TestSSEEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Topic: TopicKPI, Seq: 1, Frame: 10, Data: []byte(`{"frame":10,"delayMean":1.5}`)},
		{Topic: TopicEvents, Seq: 2, Frame: 10, Data: []byte(`{"kind":"assign","requestId":3}`)},
		{Topic: TopicNotices, Seq: 3, Frame: 11, Data: []byte(`{"kind":"degrade"}`)},
	}
	var wire []byte
	wire = AppendSSEComment(wire, "hb")
	for _, m := range msgs {
		wire = AppendSSE(wire, m)
	}
	wire = AppendSSEComment(wire, "closed dropped=4 delivered=9")

	r := NewReader(bytes.NewReader(wire))
	ev, err := r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.IsHeartbeat() || ev.Comment != "hb" {
		t.Fatalf("first frame = %+v, want heartbeat comment", ev)
	}
	for i, want := range msgs {
		ev, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Name != string(want.Topic) || ev.ID != want.Seq || !bytes.Equal(ev.Data, want.Data) {
			t.Fatalf("event %d = %+v, want topic=%s seq=%d data=%s", i, ev, want.Topic, want.Seq, want.Data)
		}
	}
	ev, err = r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev.Comment, "dropped=4") {
		t.Fatalf("terminal comment %q missing drop accounting", ev.Comment)
	}
	if _, err := r.ReadEvent(); err != io.EOF {
		t.Fatalf("trailing read error = %v, want io.EOF", err)
	}
}

func TestSSEMultiLineData(t *testing.T) {
	wire := "event: snapshot\ndata: line1\ndata: line2\n\n"
	ev, err := NewReader(strings.NewReader(wire)).ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if string(ev.Data) != "line1\nline2" {
		t.Fatalf("multi-line data = %q", ev.Data)
	}
}

func TestParseTopics(t *testing.T) {
	if got, err := ParseTopics(""); err != nil || got != nil {
		t.Fatalf("ParseTopics(\"\") = %v, %v; want nil, nil", got, err)
	}
	got, err := ParseTopics("kpi, slo")
	if err != nil || len(got) != 2 || got[0] != TopicKPI || got[1] != TopicSLO {
		t.Fatalf("ParseTopics(\"kpi, slo\") = %v, %v", got, err)
	}
	if _, err := ParseTopics("kpi,bogus"); err == nil {
		t.Fatal("ParseTopics accepted an unknown topic")
	}
}

// TestAppendSSEZeroAlloc pins the per-frame SSE encoding cost on a
// warmed buffer: zero allocations, so a long-lived connection's encode
// path never touches the heap.
func TestAppendSSEZeroAlloc(t *testing.T) {
	m := Msg{Topic: TopicKPI, Seq: 123456, Frame: 42, Data: []byte(`{"frame":42,"delayMean":1.25,"served":10}`)}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendSSE(buf[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("AppendSSE allocates %.1f times per call on a warmed buffer, want 0", allocs)
	}
}

func BenchmarkPublishFanout8(b *testing.B) {
	h := NewHub()
	subs := make([]*Sub, 8)
	for i := range subs {
		subs[i] = h.Subscribe(1024, TopicEvents)
		defer subs[i].Close()
	}
	// One consumer keeps a ring drained; the rest absorb drops — the
	// worst realistic mix.
	stop := make(chan struct{})
	go func() {
		for {
			subs[0].TakeBatch(nil)
			select {
			case <-subs[0].Wait():
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)
	payload := struct {
		Frame int64   `json:"frame"`
		V     float64 `json:"v"`
	}{1, 2.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload.Frame = int64(i)
		h.Publish(TopicEvents, int64(i), &payload)
	}
}

func BenchmarkAppendSSE(b *testing.B) {
	m := Msg{Topic: TopicKPI, Seq: 99, Frame: 7, Data: []byte(`{"frame":7,"delayMean":1.5,"served":100,"queued":3}`)}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendSSE(buf[:0], m)
	}
	_ = fmt.Sprint(len(buf))
}

// TestParseTopicsEdges pins the parser's tolerance: empty segments and
// stray whitespace are skipped, duplicates pass through verbatim (the
// subscriber's topic set dedupes them), and every registered topic —
// including prof — round-trips by name.
func TestParseTopicsEdges(t *testing.T) {
	got, err := ParseTopics("kpi,,  ,slo,")
	if err != nil || len(got) != 2 || got[0] != TopicKPI || got[1] != TopicSLO {
		t.Fatalf("ParseTopics with empty segments = %v, %v; want [kpi slo]", got, err)
	}
	got, err = ParseTopics("prof,prof")
	if err != nil || len(got) != 2 || got[0] != TopicProf || got[1] != TopicProf {
		t.Fatalf("ParseTopics(\"prof,prof\") = %v, %v; want duplicates preserved", got, err)
	}
	var all []string
	for _, tp := range Topics {
		all = append(all, string(tp))
	}
	got, err = ParseTopics(strings.Join(all, ","))
	if err != nil || len(got) != len(Topics) {
		t.Fatalf("ParseTopics(all) = %v, %v; want every registered topic", got, err)
	}
}

// TestSubscribeDuplicateTopics pins that subscribing with a repeated
// topic (as ParseTopics can produce) neither double-delivers messages
// nor corrupts the hub's per-topic subscriber counts on detach.
func TestSubscribeDuplicateTopics(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(16, TopicProf, TopicProf)
	h.Publish(TopicProf, 1, json.RawMessage(`{"frame":1}`))
	if got := drainAll(sub); len(got) != 1 {
		t.Fatalf("duplicate-topic subscriber saw %d copies, want 1", len(got))
	}
	if !h.Wants(TopicProf) {
		t.Fatal("hub should report a prof subscriber")
	}
	sub.Close()
	if h.Wants(TopicProf) {
		t.Fatal("prof subscriber count leaked after Close")
	}
}

// TestSSEReaderCRLF pins that the client parser accepts CRLF line
// endings: proxies and Windows-side tooling rewrite bare LF, and the
// SSE spec permits both.
func TestSSEReaderCRLF(t *testing.T) {
	wire := ": hb\r\n\r\nevent: kpi\r\nid: 7\r\ndata: {\"frame\":7}\r\n\r\n"
	r := NewReader(strings.NewReader(wire))
	ev, err := r.ReadEvent()
	if err != nil || !ev.IsHeartbeat() || ev.Comment != "hb" {
		t.Fatalf("CRLF heartbeat = %+v, %v", ev, err)
	}
	ev, err = r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Name != "kpi" || ev.ID != 7 || string(ev.Data) != `{"frame":7}` {
		t.Fatalf("CRLF event = %+v, want kpi/7/{\"frame\":7}", ev)
	}
	if _, err := r.ReadEvent(); err != io.EOF {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

// TestSSEReaderCommentOnlyHeartbeats pins that a run of comment-only
// frames (idle-stream keepalives) parses as distinct heartbeats and
// never swallows the data event that follows them.
func TestSSEReaderCommentOnlyHeartbeats(t *testing.T) {
	var wire []byte
	for i := 0; i < 3; i++ {
		wire = AppendSSEComment(wire, "hb")
	}
	wire = AppendSSE(wire, Msg{Topic: TopicProf, Seq: 9, Frame: 2, Data: []byte(`{"frame":2}`)})
	r := NewReader(bytes.NewReader(wire))
	for i := 0; i < 3; i++ {
		ev, err := r.ReadEvent()
		if err != nil || !ev.IsHeartbeat() {
			t.Fatalf("heartbeat %d = %+v, %v", i, ev, err)
		}
	}
	ev, err := r.ReadEvent()
	if err != nil || ev.Name != string(TopicProf) || ev.ID != 9 {
		t.Fatalf("post-heartbeat event = %+v, %v", ev, err)
	}
}
