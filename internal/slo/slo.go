// Package slo evaluates declarative service-level objectives over the
// per-frame KPI series the simulator records into tseries. Each
// objective names a series aggregation, a comparison, and a threshold
// — "max(delay_p95) < 3", "frac(expired, served) < 1%",
// "delta(stability_violations) == 0" — and is re-evaluated every frame
// over two rolling windows: a fast window (default 5 frames) that
// catches sharp regressions quickly, and a slow window (default 60
// frames) that filters one-frame blips. This is the multi-window
// burn-rate pattern: a breach requires BOTH windows to violate, a
// fast-only violation is a warning.
//
// Each objective runs a hysteresis state machine:
//
//	ok ──fast+slow violate──▶ breach
//	ok ──fast violates────▶ warning ──slow follows──▶ breach
//	warning ──clear streak──▶ ok
//	breach ──clear streak──▶ recovered ──clear streak──▶ ok
//
// so a flapping signal cannot oscillate the alert every frame. Observe
// returns the frame's transitions; the simulator publishes them on its
// stream hub and fires its flight recorder on each breach. A breach
// also increments slo_breaches_total, and every state is exported as
// slo_state{slo="..."} gauges for scrapers.
//
// The engine is deliberately simulation-frame-clocked, not wall-
// clocked: windows are counted in dispatch frames so the same SLO file
// means the same thing in the daemon, the batch runner, and tests.
package slo

import (
	"fmt"
	"strings"
	"sync"

	"stabledispatch/internal/obs"
	"stabledispatch/internal/tseries"
)

// Window and hysteresis defaults.
const (
	DefaultFastWindow  = 5
	DefaultSlowWindow  = 60
	DefaultClearFrames = 10
)

// State is one objective's alert state.
type State string

const (
	StateOK        State = "ok"
	StateWarning   State = "warning"
	StateBreach    State = "breach"
	StateRecovered State = "recovered"
)

// stateRank maps states to the numeric gauge scrapers alert on.
func stateRank(s State) float64 {
	switch s {
	case StateWarning:
		return 1
	case StateBreach:
		return 2
	case StateRecovered:
		return 3
	}
	return 0
}

// Agg names a window aggregator.
type Agg string

const (
	AggLast  Agg = "last"  // newest sample's value
	AggMean  Agg = "mean"  // mean over the window
	AggMax   Agg = "max"   // max over the window
	AggMin   Agg = "min"   // min over the window
	AggDelta Agg = "delta" // newest minus oldest (cumulative series)
	AggRate  Agg = "rate"  // delta per frame
	AggFrac  Agg = "frac"  // delta(a) / (delta(a) + delta(b))
)

// Op is a comparison operator; the condition holding means the
// objective is healthy.
type Op string

const (
	OpLT Op = "<"
	OpLE Op = "<="
	OpGT Op = ">"
	OpGE Op = ">="
	OpEQ Op = "=="
	OpNE Op = "!="
)

func (o Op) holds(v, threshold float64) bool {
	switch o {
	case OpLT:
		return v < threshold
	case OpLE:
		return v <= threshold
	case OpGT:
		return v > threshold
	case OpGE:
		return v >= threshold
	case OpEQ:
		return v == threshold
	case OpNE:
		return v != threshold
	}
	return false
}

// Def is one declarative objective.
type Def struct {
	// Name labels the objective in gauges, /v1/slo, and bundles.
	Name string
	// Agg aggregates Series over each window (AggLast when empty).
	Agg Agg
	// Series is the tseries name aggregated (frac's numerator).
	Series string
	// Series2 is frac's denominator partner; empty otherwise.
	Series2 string
	// Op compares the aggregate against Threshold; holding means healthy.
	Op Op
	// Threshold is the objective's bound.
	Threshold float64
	// FastWindow and SlowWindow are the burn windows in frames
	// (defaults DefaultFastWindow / DefaultSlowWindow).
	FastWindow int
	SlowWindow int
	// ClearFrames is the healthy streak required to leave warning,
	// breach, or recovered (default DefaultClearFrames).
	ClearFrames int
}

func (d Def) withDefaults() (Def, error) {
	if d.Name == "" {
		return d, fmt.Errorf("slo: objective without a name")
	}
	if d.Agg == "" {
		d.Agg = AggLast
	}
	switch d.Agg {
	case AggLast, AggMean, AggMax, AggMin, AggDelta, AggRate:
		if d.Series2 != "" {
			return d, fmt.Errorf("slo %s: aggregator %s takes one series", d.Name, d.Agg)
		}
	case AggFrac:
		if d.Series2 == "" {
			return d, fmt.Errorf("slo %s: frac needs two series", d.Name)
		}
		if !tseries.ValidSeries(d.Series2) {
			return d, fmt.Errorf("slo %s: unknown series %q", d.Name, d.Series2)
		}
	default:
		return d, fmt.Errorf("slo %s: unknown aggregator %q", d.Name, d.Agg)
	}
	if !tseries.ValidSeries(d.Series) {
		return d, fmt.Errorf("slo %s: unknown series %q", d.Name, d.Series)
	}
	switch d.Op {
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
	default:
		return d, fmt.Errorf("slo %s: unknown operator %q", d.Name, d.Op)
	}
	if d.FastWindow <= 0 {
		d.FastWindow = DefaultFastWindow
	}
	if d.SlowWindow <= 0 {
		d.SlowWindow = DefaultSlowWindow
	}
	if d.SlowWindow < d.FastWindow {
		return d, fmt.Errorf("slo %s: slow window %d < fast window %d", d.Name, d.SlowWindow, d.FastWindow)
	}
	if d.ClearFrames <= 0 {
		d.ClearFrames = DefaultClearFrames
	}
	return d, nil
}

// Expr renders the objective's condition, the inverse of ParseLine.
func (d Def) Expr() string {
	var e string
	switch d.Agg {
	case AggLast:
		e = d.Series
	case AggFrac:
		e = fmt.Sprintf("frac(%s, %s)", d.Series, d.Series2)
	default:
		e = fmt.Sprintf("%s(%s)", d.Agg, d.Series)
	}
	return fmt.Sprintf("%s %s %g", e, d.Op, d.Threshold)
}

// Status is one objective's externally visible evaluation state.
type Status struct {
	Name string `json:"name"`
	Expr string `json:"expr"`
	// State is the hysteresis machine's current state.
	State State `json:"state"`
	// Fast and Slow are the current window aggregates; FastOK/SlowOK
	// whether each satisfies the condition.
	Fast   float64 `json:"fast"`
	Slow   float64 `json:"slow"`
	FastOK bool    `json:"fastOk"`
	SlowOK bool    `json:"slowOk"`
	// Breaches counts breach transitions this run.
	Breaches int64 `json:"breaches"`
	// LastTransitionFrame is the frame of the latest state change.
	LastTransitionFrame int64 `json:"lastTransitionFrame"`
	// Frames is how many samples the engine has observed.
	Frames int64 `json:"frames"`
}

// objective is one Def plus its live state.
type objective struct {
	def        Def
	state      State
	okStreak   int
	breaches   int64
	lastChange int64
	fast, slow float64
	fastOK     bool
	slowOK     bool
	stateG     *obs.Gauge
	fastG      *obs.Gauge
	slowG      *obs.Gauge
}

// Engine evaluates a set of objectives frame by frame. Safe for
// concurrent Observe/Status use.
type Engine struct {
	mu   sync.Mutex
	objs []*objective
	// ring holds the last maxWindow samples.
	ring   []tseries.Sample
	head   int
	n      int
	frames int64
}

// New validates defs and builds an engine. At least one objective is
// required.
func New(defs []Def) (*Engine, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("slo: no objectives defined")
	}
	maxWin := 0
	seen := make(map[string]bool, len(defs))
	e := &Engine{}
	for _, d := range defs {
		d, err := d.withDefaults()
		if err != nil {
			return nil, err
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", d.Name)
		}
		seen[d.Name] = true
		if d.SlowWindow > maxWin {
			maxWin = d.SlowWindow
		}
		label := fmt.Sprintf(`{slo=%q}`, d.Name)
		e.objs = append(e.objs, &objective{
			def:    d,
			state:  StateOK,
			stateG: obs.GetOrCreateGauge("slo_state" + label),
			fastG:  obs.GetOrCreateGauge("slo_value_fast" + label),
			slowG:  obs.GetOrCreateGauge("slo_value_slow" + label),
		})
	}
	e.ring = make([]tseries.Sample, maxWin)
	return e, nil
}

var obsBreaches = obs.GetOrCreateCounter("slo_breaches_total")

// Observe feeds one frame's sample, advances every objective's state
// machine, and returns the state transitions it caused, in definition
// order (nil when nothing changed).
func (e *Engine) Observe(s tseries.Sample) []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n < len(e.ring) {
		e.ring[(e.head+e.n)%len(e.ring)] = s
		e.n++
	} else {
		e.ring[e.head] = s
		e.head = (e.head + 1) % len(e.ring)
	}
	e.frames++

	var transitions []Transition
	for _, o := range e.objs {
		o.fast, o.fastOK = e.evalLocked(o.def, o.def.FastWindow)
		o.slow, o.slowOK = e.evalLocked(o.def, o.def.SlowWindow)
		prev := o.state
		healthy := o.fastOK && o.slowOK
		if healthy {
			o.okStreak++
		} else {
			o.okStreak = 0
		}
		switch o.state {
		case StateOK, StateWarning, StateRecovered:
			switch {
			case !o.fastOK && !o.slowOK:
				o.state = StateBreach
			case !o.fastOK:
				o.state = StateWarning
			case o.state != StateOK && o.okStreak >= o.def.ClearFrames:
				o.state = StateOK
			}
		case StateBreach:
			if o.okStreak >= o.def.ClearFrames {
				o.state = StateRecovered
			}
		}
		if o.state != prev {
			o.lastChange = s.Frame
			if o.state == StateBreach {
				o.breaches++
				obsBreaches.Inc()
			}
			transitions = append(transitions, Transition{
				Name:  o.def.Name,
				Expr:  o.def.Expr(),
				From:  prev,
				To:    o.state,
				Frame: s.Frame,
				Fast:  o.fast,
				Slow:  o.slow,
			})
		}
		o.stateG.Set(stateRank(o.state))
		o.fastG.Set(o.fast)
		o.slowG.Set(o.slow)
	}
	return transitions
}

// Transition is one hysteresis state change, published on the live
// telemetry stream's slo topic the frame it happens.
type Transition struct {
	Name  string  `json:"slo"`
	Expr  string  `json:"expr"`
	From  State   `json:"from"`
	To    State   `json:"to"`
	Frame int64   `json:"frame"`
	Fast  float64 `json:"fast"`
	Slow  float64 `json:"slow"`
}

// Detail renders the transition for a flight-recorder trigger:
// "delay_p95: max(delay_p95) < 3 (fast=4.2 slow=3.1)".
func (t Transition) Detail() string {
	return fmt.Sprintf("%s: %s (fast=%g slow=%g)", t.Name, t.Expr, t.Fast, t.Slow)
}

// evalLocked aggregates the newest min(win, n) samples for one def.
// ok reports whether the condition holds (vacuously true on an empty
// window).
func (e *Engine) evalLocked(d Def, win int) (float64, bool) {
	if win > e.n {
		win = e.n
	}
	if win == 0 {
		return 0, true
	}
	at := func(i int) tseries.Sample { // i in [0,win), oldest first
		return e.ring[(e.head+e.n-win+i)%len(e.ring)]
	}
	val := func(s tseries.Sample, name string) float64 {
		v, _ := s.Value(name)
		return v
	}
	var v float64
	switch d.Agg {
	case AggLast:
		v = val(at(win-1), d.Series)
	case AggMean:
		for i := 0; i < win; i++ {
			v += val(at(i), d.Series)
		}
		v /= float64(win)
	case AggMax:
		v = val(at(0), d.Series)
		for i := 1; i < win; i++ {
			if x := val(at(i), d.Series); x > v {
				v = x
			}
		}
	case AggMin:
		v = val(at(0), d.Series)
		for i := 1; i < win; i++ {
			if x := val(at(i), d.Series); x < v {
				v = x
			}
		}
	case AggDelta:
		v = val(at(win-1), d.Series) - val(at(0), d.Series)
	case AggRate:
		v = (val(at(win-1), d.Series) - val(at(0), d.Series)) / float64(win)
	case AggFrac:
		a := val(at(win-1), d.Series) - val(at(0), d.Series)
		b := val(at(win-1), d.Series2) - val(at(0), d.Series2)
		if a+b > 0 {
			v = a / (a + b)
		}
	}
	return v, d.Op.holds(v, d.Threshold)
}

// Status snapshots every objective, in definition order.
func (e *Engine) Status() []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.objs))
	for _, o := range e.objs {
		out = append(out, Status{
			Name:                o.def.Name,
			Expr:                o.def.Expr(),
			State:               o.state,
			Fast:                o.fast,
			Slow:                o.slow,
			FastOK:              o.fastOK,
			SlowOK:              o.slowOK,
			Breaches:            o.breaches,
			LastTransitionFrame: o.lastChange,
			Frames:              e.frames,
		})
	}
	return out
}

// Breached reports whether any objective is currently in breach, and
// whether any breached at all this run.
func (e *Engine) Breached() (now, ever bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.state == StateBreach {
			now = true
		}
		if o.breaches > 0 {
			ever = true
		}
	}
	return now, ever
}

// Report renders the end-of-run one-liner taxisim prints per algorithm:
// "slo: 2/3 ok; delay_p95 BREACH (max(delay_p95) < 3, fast=4.2)".
func (e *Engine) Report() string {
	sts := e.Status()
	ok := 0
	var bad []string
	for _, s := range sts {
		if s.State == StateOK || s.State == StateRecovered {
			ok++
		}
		if s.State != StateOK {
			bad = append(bad, fmt.Sprintf("%s %s (%s, fast=%g)", s.Name, strings.ToUpper(string(s.State)), s.Expr, s.Fast))
		}
	}
	if len(bad) == 0 {
		return fmt.Sprintf("slo: %d/%d ok", ok, len(sts))
	}
	return fmt.Sprintf("slo: %d/%d ok; %s", ok, len(sts), strings.Join(bad, "; "))
}
