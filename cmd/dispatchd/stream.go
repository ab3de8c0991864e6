package main

// GET /v1/stream: the live telemetry feed over server-sent events. One
// long-lived GET replaces a polling loop over /v1/metrics and /healthz:
// the connection subscribes to the broadcast hub, receives a coherent
// snapshot of current state (the simulator's event tail included), then
// gets every subsequent KPI sample, SLO transition, admission decision,
// lifecycle event, and operator notice the moment it is published.
//
// Wire protocol (text/event-stream):
//
//	event: snapshot          once, immediately after connect
//	data: {...}
//
//	event: kpi|slo|admission|events|notice
//	id: <hub sequence number>
//	data: {...}
//
//	: heartbeat seq=<n>      every 10 s of silence
//	: closed dropped=<n> delivered=<m>   terminal accounting comment
//
// Coherence: the handler subscribes BEFORE building the snapshot, so a
// message published during snapshot construction is buffered and
// delivered after it — a client may see a frame twice (snapshot and
// live), never a gap. Messages carry frame numbers and hub sequence
// numbers, so duplicates are trivially collapsed.
//
// Backpressure: each connection owns a bounded ring of
// stream.DefaultRingSize messages. A consumer slower than the feed
// drops its own oldest entries — the drops are counted in the terminal
// comment and in the hub's stream_dropped_total series — and can never
// block the frame loop, the hub, or any other connection.

import (
	"fmt"
	"net/http"
	"time"

	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

const (
	// defaultStreamHeartbeat keeps idle connections alive through
	// proxies; comments are invisible to SSE clients.
	defaultStreamHeartbeat = 10 * time.Second
	// streamWriteTimeout bounds one SSE write+flush. The server's global
	// WriteTimeout would kill the long-lived connection, so the handler
	// manages its own per-write deadline instead.
	streamWriteTimeout = 15 * time.Second
	// snapshotKPIWindow is how many trailing KPI samples the connect
	// snapshot seeds a console with: enough for an 80-column sparkline.
	snapshotKPIWindow = 120
	// snapshotEventTail bounds the lifecycle-event tail in the snapshot.
	snapshotEventTail = 100
)

// streamSnapshot is the snapshot event's payload: enough current state
// to render a full console before the first live message arrives. Each
// section is present only when its topic is subscribed.
type streamSnapshot struct {
	Frame  int64          `json:"frame"`
	Topics []stream.Topic `json:"topics"`
	// KPI is the trailing per-frame sample window, oldest first; each
	// sample carries its frame's stage times.
	KPI []tseries.Sample `json:"kpi,omitempty"`
	// SLO is the full per-objective alert table (nil when no SLO file
	// is loaded, [] when loaded with the topic subscribed).
	SLO []slo.Status `json:"slo,omitempty"`
	// Admission is the front-door gauge set at connect time.
	Admission *admissionSnapshot `json:"admission,omitempty"`
	// Events is the retained lifecycle-event tail, oldest first.
	Events []sim.Event `json:"events,omitempty"`
	// Prof is the frame-budget profiler's run-cumulative ledger, served
	// with the kpi topic: its budget marks which samples overran.
	Prof *prof.Summary `json:"prof,omitempty"`
}

// admissionSnapshot mirrors the admission controller's gauges.
type admissionSnapshot struct {
	QueueDepth int  `json:"queueDepth"`
	Inflight   int  `json:"inflight"`
	Accepted   int  `json:"accepted"`
	Draining   bool `json:"draining,omitempty"`
}

// snapshot assembles the connect-time state for the subscribed topics
// without s.mu: every store it reads carries its own lock.
func (s *server) snapshot(topics map[stream.Topic]bool) streamSnapshot {
	snap := streamSnapshot{Frame: s.frameNow.Load()}
	for _, t := range stream.Topics {
		if topics[t] {
			snap.Topics = append(snap.Topics, t)
		}
	}
	if topics[stream.TopicKPI] {
		snap.KPI = s.sim.KPIRecorder().LastN(snapshotKPIWindow)
		sum := s.sim.Ledger().Summary()
		snap.Prof = &sum
	}
	if eng := s.sim.SLO(); topics[stream.TopicSLO] && eng != nil {
		snap.SLO = eng.Status()
	}
	if topics[stream.TopicAdmission] {
		snap.Admission = &admissionSnapshot{
			QueueDepth: s.adm.QueueDepth(),
			Inflight:   s.adm.Inflight(),
			Accepted:   s.adm.Accepted(),
			Draining:   s.adm.Draining(),
		}
	}
	if topics[stream.TopicEvents] {
		tail := s.sim.RecentEvents()
		if len(tail) > snapshotEventTail {
			tail = tail[len(tail)-snapshotEventTail:]
		}
		snap.Events = tail
	}
	return snap
}

// getStream serves one SSE connection: subscribe, snapshot, then relay
// hub batches until the client goes away or a write fails.
func (s *server) getStream(w http.ResponseWriter, r *http.Request) {
	topics, err := stream.ParseTopics(r.URL.Query().Get("topics"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(topics) == 0 {
		topics = stream.Topics
	}
	want := make(map[stream.Topic]bool, len(topics))
	for _, t := range topics {
		want[t] = true
	}

	// Subscribe before snapshotting: anything published while the
	// snapshot is being built lands in the ring and is delivered after
	// it. Duplicates are possible, gaps are not.
	sub := s.sim.Hub().Subscribe(stream.DefaultRingSize, topics...)
	defer sub.Close()
	snap := s.snapshot(want)

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// send writes one encoded chunk under a fresh write deadline (the
	// handler opted out of the server-wide WriteTimeout, which would
	// otherwise kill the stream two minutes in) and flushes it.
	send := func(b []byte) bool {
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if _, err := w.Write(b); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	buf := make([]byte, 0, 16*1024)
	buf = append(buf, "event: snapshot\ndata: "...)
	buf = appendJSON(buf, snap)
	buf = append(buf, '\n', '\n')
	if !send(buf) {
		return
	}

	heartbeat := time.NewTicker(s.streamHeartbeat)
	defer heartbeat.Stop()
	var batch []stream.Msg
	for {
		select {
		case <-r.Context().Done():
			// Best-effort terminal accounting; the client may already be
			// gone.
			buf = stream.AppendSSEComment(buf[:0], fmt.Sprintf(
				"closed dropped=%d delivered=%d", sub.Dropped(), sub.Delivered()))
			send(buf)
			return
		case <-heartbeat.C:
			buf = stream.AppendSSEComment(buf[:0], fmt.Sprintf("heartbeat seq=%d", sub.Delivered()))
			if !send(buf) {
				return
			}
		case <-sub.Wait():
			batch = sub.TakeBatch(batch[:0])
			if len(batch) == 0 {
				continue
			}
			buf = buf[:0]
			for _, m := range batch {
				buf = stream.AppendSSE(buf, m)
			}
			if !send(buf) {
				return
			}
		}
	}
}
