package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// Wire mirrors of the daemon's payloads. dispatchtop is a separate
// binary talking JSON over SSE, so it declares the shapes it consumes
// instead of importing the server's internals; the shared types
// (tseries.Sample, slo.Status, sim.Event, stream.Notice) come from the
// same module and pin the field names.

// snapshot is the connect-time state event (event: snapshot).
type snapshot struct {
	Frame     int64            `json:"frame"`
	Topics    []stream.Topic   `json:"topics"`
	KPI       []tseries.Sample `json:"kpi"`
	SLO       []slo.Status     `json:"slo"`
	Admission *admissionGauges `json:"admission"`
	Events    []sim.Event      `json:"events"`
	Prof      *prof.Summary    `json:"prof"`
}

// admissionGauges mirrors the snapshot's admission section.
type admissionGauges struct {
	QueueDepth int  `json:"queueDepth"`
	Inflight   int  `json:"inflight"`
	Accepted   int  `json:"accepted"`
	Draining   bool `json:"draining"`
}

// admissionDecision mirrors admission.Decision on the live topic.
type admissionDecision struct {
	Kind       string `json:"kind"`
	ID         int    `json:"id"`
	Reason     string `json:"reason"`
	Batch      int    `json:"batch"`
	QueueDepth int    `json:"queueDepth"`
	Inflight   int    `json:"inflight"`
}

// sloTransition mirrors slo.Transition on the live topic.
type sloTransition struct {
	Name  string    `json:"slo"`
	Expr  string    `json:"expr"`
	From  slo.State `json:"from"`
	To    slo.State `json:"to"`
	Frame int64     `json:"frame"`
	Fast  float64   `json:"fast"`
	Slow  float64   `json:"slow"`
}

// eventTailLen bounds the rendered lifecycle-event and notice tails.
const eventTailLen = 10

// model is dispatchtop's entire state: everything on screen comes from
// here, and everything here comes from SSE events via apply. Guarded by
// mu because the reader goroutine applies while the UI ticker renders.
type model struct {
	mu sync.Mutex

	frame  int64
	topics []stream.Topic
	// kpi is the trailing sample window driving the sparklines.
	kpi    []tseries.Sample
	kpiCap int
	// slos holds per-objective state, render-ordered by first sight.
	slos       map[string]slo.Status
	sloOrder   []string
	adm        admissionGauges
	shed       map[string]int // live shed counts by reason
	lastIntake int
	events     []sim.Event
	notices    []stream.Notice
	// budgetNs is the ledger's frame budget from the snapshot; it marks
	// which live KPI samples overran, and each one adds to the
	// snapshot's overruns. Captures and suppressions advance only on the
	// daemon, so the console leaves them to /v1/profile.
	budgetNs int64
	overruns int64

	// Connection accounting for the status line.
	seq        uint64
	applied    uint64
	heartbeats uint64
	lastErr    string
}

func newModel(kpiWindow int) *model {
	if kpiWindow <= 0 {
		kpiWindow = 120
	}
	return &model{
		kpiCap: kpiWindow,
		slos:   make(map[string]slo.Status),
		shed:   make(map[string]int),
	}
}

// apply folds one SSE event into the model. Unknown event names and
// undecodable payloads are counted, not fatal: the console must survive
// a newer daemon.
func (m *model) apply(ev stream.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev.IsHeartbeat() {
		m.heartbeats++
		return
	}
	if ev.ID > m.seq {
		m.seq = ev.ID
	}
	switch ev.Name {
	case "snapshot":
		var s snapshot
		if m.decode(ev.Data, &s) {
			m.frame = s.Frame
			m.topics = s.Topics
			m.kpi = append(m.kpi[:0], s.KPI...)
			m.trimKPI()
			for _, st := range s.SLO {
				m.upsertSLO(st)
			}
			if s.Admission != nil {
				m.adm = *s.Admission
			}
			m.events = append(m.events[:0], s.Events...)
			m.trimTails()
			if s.Prof != nil {
				m.budgetNs = s.Prof.BudgetNs
				m.overruns = s.Prof.Overruns
			}
		}
	case "kpi":
		var s tseries.Sample
		if m.decode(ev.Data, &s) {
			m.frame = s.Frame
			m.kpi = append(m.kpi, s)
			m.trimKPI()
			if m.overBudget(s) {
				m.overruns++
			}
		}
	case "slo":
		var tr sloTransition
		if m.decode(ev.Data, &tr) {
			st := m.slos[tr.Name]
			if st.Name == "" {
				st.Name = tr.Name
			}
			st.Expr = tr.Expr
			st.State = tr.To
			st.Fast, st.Slow = tr.Fast, tr.Slow
			st.LastTransitionFrame = tr.Frame
			if tr.To == slo.StateBreach {
				st.Breaches++
			}
			m.upsertSLO(st)
		}
	case "admission":
		var d admissionDecision
		if m.decode(ev.Data, &d) {
			switch d.Kind {
			case "accepted":
				m.adm.Accepted++
				m.adm.QueueDepth = d.QueueDepth
				m.adm.Inflight = d.Inflight
			case "shed":
				m.shed[d.Reason]++
				m.adm.QueueDepth = d.QueueDepth
				m.adm.Inflight = d.Inflight
				if d.Reason == "draining" {
					m.adm.Draining = true
				}
			case "intake":
				m.lastIntake = d.Batch
				m.adm.QueueDepth = 0
				m.adm.Inflight = d.Inflight
			}
		}
	case "events":
		var e sim.Event
		if m.decode(ev.Data, &e) {
			m.events = append(m.events, e)
			m.trimTails()
		}
	case "notice":
		var n stream.Notice
		if m.decode(ev.Data, &n) {
			m.notices = append(m.notices, n)
			m.trimTails()
		}
	}
}

// overBudget reports whether a KPI sample's frame overran the ledger's
// budget (the ledger's own overrun test: its frame wall-clock is the
// sample's FrameNs).
func (m *model) overBudget(s tseries.Sample) bool {
	return m.budgetNs > 0 && s.FrameNs > m.budgetNs
}

// decode unmarshals and counts; a failure records the error for the
// status line instead of crashing the console.
func (m *model) decode(data []byte, v any) bool {
	if err := json.Unmarshal(data, v); err != nil {
		m.lastErr = fmt.Sprintf("decode: %v", err)
		return false
	}
	m.applied++
	return true
}

func (m *model) upsertSLO(st slo.Status) {
	if _, seen := m.slos[st.Name]; !seen {
		m.sloOrder = append(m.sloOrder, st.Name)
	}
	m.slos[st.Name] = st
}

func (m *model) trimKPI() {
	if len(m.kpi) > m.kpiCap {
		m.kpi = m.kpi[len(m.kpi)-m.kpiCap:]
	}
}

func (m *model) trimTails() {
	if len(m.events) > eventTailLen {
		m.events = m.events[len(m.events)-eventTailLen:]
	}
	if len(m.notices) > eventTailLen {
		m.notices = m.notices[len(m.notices)-eventTailLen:]
	}
}

// series extracts one named KPI series from the sample window.
func (m *model) series(name string) []float64 {
	out := make([]float64, 0, len(m.kpi))
	for _, s := range m.kpi {
		if v, ok := s.Value(name); ok {
			out = append(out, v)
		}
	}
	return out
}
