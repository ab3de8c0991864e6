// Package stream is the dispatcher's live-telemetry layer: a broadcast
// hub that fans per-frame telemetry — KPI samples, SLO state
// transitions, admission accepted/shed/queue-depth, the lifecycle event
// tail, and degrade/fault notices — out to any number of subscribers in
// real time. It is the push-based counterpart of the pull endpoints
// (/v1/metrics, /v1/profile, /healthz): the moment queue depth climbs
// or an SLO goes warning, every subscriber sees it, instead of on its
// next poll.
//
// The contract with the frame loop (the producers' hot path):
//
//   - Publish NEVER blocks and never waits on a consumer. Each
//     subscriber owns a bounded ring; a full ring overwrites the
//     subscriber's own oldest entry and counts the drop. A stalled SSE
//     connection therefore costs itself history, never the frame loop
//     and never its sibling subscribers.
//   - Publish with no subscriber interested in the topic is one atomic
//     load, and producers gate payload construction on Wants, which is
//     false on a nil hub — so a simulator with no hub configured pays
//     one pointer check per publish site. The payload is JSON-encoded
//     once per publish, not once per subscriber.
//   - The hub takes only its own locks. It knows nothing about the
//     serving layer, so it cannot hold server.mu — the SSE handler
//     composes its snapshot separately and only then drains the ring.
//
// Drop accounting is two-level: each subscriber counts its own drops
// (Sub.Dropped, reported in the SSE terminal comment), and the hub sums
// drops across all of its subscribers (Hub.Dropped, exported by
// dispatchd as stream_dropped_total), so "is anyone losing telemetry"
// is one scrape away.
package stream

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Topic labels one telemetry stream. Subscribers filter by topic; the
// taxonomy is closed so clients can match on the strings.
type Topic string

// Topics, in the order dispatchtop renders them.
const (
	// TopicKPI carries one tseries.Sample per dispatch frame, with the
	// frame-budget ledger's per-stage times in its StageNs.
	TopicKPI Topic = "kpi"
	// TopicSLO carries SLO hysteresis state transitions.
	TopicSLO Topic = "slo"
	// TopicAdmission carries front-door decisions: per-frame intake
	// summaries and shed notices.
	TopicAdmission Topic = "admission"
	// TopicEvents carries the simulator lifecycle event tail.
	TopicEvents Topic = "events"
	// TopicNotices carries exceptional conditions: dispatch degrades,
	// taxi breakdowns, flight-recorder triggers.
	TopicNotices Topic = "notice"
)

// Topics lists every topic, in render order.
var Topics = []Topic{TopicKPI, TopicSLO, TopicAdmission, TopicEvents, TopicNotices}

// numTopics sizes the fixed per-topic arrays below.
const numTopics = 5

// topicIndex maps a topic to its slot in the per-topic subscriber
// counts; -1 for unknown topics.
func topicIndex(t Topic) int {
	for i, known := range Topics {
		if known == t {
			return i
		}
	}
	return -1
}

// ValidTopic reports whether t names a known topic.
func ValidTopic(t Topic) bool { return topicIndex(t) >= 0 }

// Msg is one published telemetry message. Data is the JSON-encoded
// payload, encoded exactly once at publish time and shared (read-only)
// by every subscriber's ring.
type Msg struct {
	Topic Topic
	// Seq is the hub-wide publish sequence number (1-based); gaps in a
	// subscriber's view are exactly its drops plus its topic filter.
	Seq uint64
	// Frame is the dispatch frame the message describes (-1 when the
	// producer is not frame-synchronous).
	Frame int64
	// Data is the JSON payload.
	Data []byte
}

// DefaultRingSize bounds a subscriber's ring when Subscribe is given a
// non-positive size: ten seconds of a busy event stream, a couple of
// minutes of per-frame samples.
const DefaultRingSize = 1024

// Hub is the broadcast fan-out point. Safe for concurrent use.
type Hub struct {
	mu   sync.Mutex
	subs map[*Sub]struct{}
	seq  atomic.Uint64
	// nsubs[i] counts subscribers interested in Topics[i]; Publish
	// reads it lock-free to skip encoding when nobody is listening.
	nsubs [numTopics]atomic.Int32

	published [numTopics]atomic.Uint64
	dropped   atomic.Uint64
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[*Sub]struct{})}
}

// Wants reports whether at least one subscriber is interested in the
// topic — one atomic load, so producers can gate payload construction
// on it from the hot path. A nil hub (streaming off) wants nothing.
func (h *Hub) Wants(t Topic) bool {
	if h == nil {
		return false
	}
	i := topicIndex(t)
	return i >= 0 && h.nsubs[i].Load() > 0
}

// Publish encodes payload once and offers it to every interested
// subscriber's ring. It never blocks: a full ring drops that
// subscriber's oldest entry. With no interested subscriber it returns
// after one atomic load, without encoding. Returns the message sequence
// number (0 when skipped or the payload failed to encode).
func (h *Hub) Publish(t Topic, frame int64, payload any) uint64 {
	ti := topicIndex(t)
	if ti < 0 || h.nsubs[ti].Load() == 0 {
		return 0
	}
	data, err := json.Marshal(payload)
	if err != nil {
		// Telemetry must never take the frame loop down; an unencodable
		// payload is a programming error surfaced by tests.
		return 0
	}
	seq := h.seq.Add(1)
	m := Msg{Topic: t, Seq: seq, Frame: frame, Data: data}
	h.published[ti].Add(1)
	h.mu.Lock()
	for s := range h.subs {
		if s.topics[ti] {
			s.push(m)
		}
	}
	h.mu.Unlock()
	return seq
}

// Subscribe registers a subscriber for the given topics (all topics
// when none are given), with a ring of the given size (DefaultRingSize
// when non-positive). The returned Sub must be Closed when done.
func (h *Hub) Subscribe(ring int, topics ...Topic) *Sub {
	if ring <= 0 {
		ring = DefaultRingSize
	}
	s := &Sub{
		hub:    h,
		ring:   make([]Msg, ring),
		notify: make(chan struct{}, 1),
	}
	if len(topics) == 0 {
		topics = Topics
	}
	for _, t := range topics {
		if i := topicIndex(t); i >= 0 {
			s.topics[i] = true
		}
	}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	for i := range Topics {
		if s.topics[i] {
			h.nsubs[i].Add(1)
		}
	}
	return s
}

// unsubscribe detaches s; idempotent.
func (h *Hub) unsubscribe(s *Sub) {
	h.mu.Lock()
	_, present := h.subs[s]
	delete(h.subs, s)
	h.mu.Unlock()
	if !present {
		return
	}
	for i := range Topics {
		if s.topics[i] {
			h.nsubs[i].Add(-1)
		}
	}
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Published returns how many messages the hub has published on topic t
// (0 for an unknown topic).
func (h *Hub) Published(t Topic) uint64 {
	i := topicIndex(t)
	if i < 0 {
		return 0
	}
	return h.published[i].Load()
}

// Dropped returns how many messages the hub's subscribers, past and
// present, have lost to ring overwrites.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// Sub is one subscriber's bounded view of the stream. Producers push
// into the ring through the hub; the consumer drains with TakeBatch,
// waking on Wait. All methods are safe for concurrent use.
type Sub struct {
	hub    *Hub
	topics [numTopics]bool
	notify chan struct{}

	mu        sync.Mutex
	ring      []Msg
	head      int // index of the oldest entry
	n         int // live entries
	dropped   uint64
	delivered uint64
	closed    bool
}

// push offers one message; full rings overwrite the oldest entry and
// count the drop. Called by the hub with h.mu held; takes only s.mu, so
// a consumer holding nothing heavier than s.mu can never stall Publish
// for longer than one O(1) ring write.
func (s *Sub) push(m Msg) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n < len(s.ring) {
		s.ring[(s.head+s.n)%len(s.ring)] = m
		s.n++
	} else {
		s.ring[s.head] = m
		s.head = (s.head + 1) % len(s.ring)
		s.dropped++
		s.hub.dropped.Add(1)
	}
	s.mu.Unlock()
	// Non-blocking wake: a pending wake already covers this message.
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Wait returns the channel the hub signals when the ring goes
// non-empty. One signal may cover many messages: drain with TakeBatch
// until it returns nothing.
func (s *Sub) Wait() <-chan struct{} { return s.notify }

// TakeBatch drains every buffered message, oldest first, appending to
// buf (pass a reusable slice to avoid allocation). Returns buf.
func (s *Sub) TakeBatch(buf []Msg) []Msg {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		buf = append(buf, s.ring[(s.head+i)%len(s.ring)])
	}
	s.delivered += uint64(s.n)
	s.head, s.n = 0, 0
	return buf
}

// Dropped returns how many messages this subscriber has lost to ring
// overwrites.
func (s *Sub) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Delivered returns how many messages the consumer has taken.
func (s *Sub) Delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

// Close detaches the subscriber from the hub and marks it closed;
// idempotent. Buffered messages remain readable via TakeBatch.
func (s *Sub) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.hub.unsubscribe(s)
}

// Notice is the TopicNotices payload: one exceptional condition.
type Notice struct {
	Kind   string `json:"kind"` // "degrade", "breakdown", ...
	Frame  int64  `json:"frame"`
	Detail string `json:"detail"`
}
