package slo

import (
	"strings"
	"testing"

	"stabledispatch/internal/tseries"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		want Def
	}{
		{
			"delay: max(delay_p95) < 3 fast=5 slow=60",
			Def{Name: "delay", Agg: AggMax, Series: "delay_p95", Op: OpLT, Threshold: 3,
				FastWindow: 5, SlowWindow: 60, ClearFrames: DefaultClearFrames},
		},
		{
			"expired: frac(expired, served) < 1% clear=20",
			Def{Name: "expired", Agg: AggFrac, Series: "expired", Series2: "served", Op: OpLT,
				Threshold: 0.01, FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow, ClearFrames: 20},
		},
		{
			"degraded: delta(degraded_frames) == 0",
			Def{Name: "degraded", Agg: AggDelta, Series: "degraded_frames", Op: OpEQ, Threshold: 0,
				FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow, ClearFrames: DefaultClearFrames},
		},
		{
			"stability: stability_violations == 0",
			Def{Name: "stability", Agg: AggLast, Series: "stability_violations", Op: OpEQ, Threshold: 0,
				FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow, ClearFrames: DefaultClearFrames},
		},
		{
			"throughput: rate(served) >= 0.5",
			Def{Name: "throughput", Agg: AggRate, Series: "served", Op: OpGE, Threshold: 0.5,
				FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow, ClearFrames: DefaultClearFrames},
		},
	}
	for _, c := range cases {
		got, err := ParseLine(c.line)
		if err != nil {
			t.Errorf("ParseLine(%q): %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseLine(%q)\n got %+v\nwant %+v", c.line, got, c.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"no colon here",
		"x: bogus_series < 1",             // unknown series
		"x: wat(served) < 1",              // unknown aggregator
		"x: served ~ 1",                   // unknown operator
		"x: served < banana",              // bad threshold
		"x: served < NaN",                 // NaN threshold never holds
		"x: served < 1 fast=0",            // non-positive window
		"x: served < 1 turbo=3",           // unknown option
		"x: frac(expired) < 1",            // frac arity
		"x: max(a, b) < 1",                // single-series agg with two
		"x: served < 1 fast=60 slow=5",    // slow < fast
		"two words: served < 1",           // bad name
		"x: frac(expired, bogus) < 1",     // unknown second series
		"x: frac(expired, served, x) < 1", // too many args
		"x: max(delay_p95 < 1",            // unbalanced parens
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) accepted", line)
		}
	}
}

func TestParseFileCommentsAndErrors(t *testing.T) {
	defs, err := Parse(strings.NewReader(`
# delay objective
delay: max(delay_p95) < 3   # inline comment

expired: frac(expired, served) < 1%
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(defs) != 2 || defs[0].Name != "delay" || defs[1].Name != "expired" {
		t.Fatalf("defs = %+v", defs)
	}
	if _, err := Parse(strings.NewReader("ok: served >= 0\nbroken line\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("Parse error lacks line number: %v", err)
	}
	if _, err := New(nil); err == nil {
		t.Error("New accepted zero objectives")
	}
	if _, err := New([]Def{
		{Name: "d", Series: "served", Op: OpGE},
		{Name: "d", Series: "served", Op: OpGE},
	}); err == nil {
		t.Error("New accepted duplicate names")
	}
}

// feed pushes frames with a constant delay_p95 value.
func feed(e *Engine, from, n int64, delayP95 float64) {
	for f := from; f < from+n; f++ {
		e.Observe(tseries.Sample{Frame: f, DelayP95: delayP95, Served: f + 1})
	}
}

// TestHysteresisLifecycle walks one objective through
// ok → warning → breach → recovered → ok.
func TestHysteresisLifecycle(t *testing.T) {
	e, err := New([]Def{{
		Name: "delay", Agg: AggMax, Series: "delay_p95", Op: OpLT, Threshold: 3,
		FastWindow: 2, SlowWindow: 6, ClearFrames: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, 0, 6, 1) // healthy
	if st := e.Status()[0]; st.State != StateOK {
		t.Fatalf("after healthy frames: %+v", st)
	}

	// Two bad frames violate the fast window (max over 2) but the slow
	// window's max is already 5... actually max poisons both windows at
	// once, so drive the slow window with mean instead? No — with Agg
	// max, one bad frame violates fast AND slow simultaneously. Use the
	// warning path via a def whose slow window stays healthy: mean.
	e2, err := New([]Def{{
		Name: "delay", Agg: AggMean, Series: "delay_p95", Op: OpLT, Threshold: 3,
		FastWindow: 2, SlowWindow: 10, ClearFrames: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	feed(e2, 0, 10, 1) // healthy baseline, slow mean = 1
	feed(e2, 10, 2, 6) // fast mean = 6 (violates); slow mean = 2 (ok)
	if st := e2.Status()[0]; st.State != StateWarning {
		t.Fatalf("want warning, got %+v", st)
	}
	feed(e2, 12, 6, 8) // slow mean climbs past 3 → breach
	st := e2.Status()[0]
	if st.State != StateBreach || st.Breaches != 1 {
		t.Fatalf("want breach with 1 breach, got %+v", st)
	}
	feed(e2, 18, 2, 0) // healthy again but slow window still poisoned
	if got := e2.Status()[0].State; got != StateBreach {
		t.Fatalf("left breach before clear streak: %s", got)
	}
	feed(e2, 20, 10, 0) // slow mean drains below 3, streak builds
	if got := e2.Status()[0].State; got != StateRecovered && got != StateOK {
		t.Fatalf("want recovered/ok after drain, got %s", got)
	}
	feed(e2, 30, 10, 0)
	st = e2.Status()[0]
	if st.State != StateOK {
		t.Fatalf("want ok after extended health, got %+v", st)
	}
	if st.Breaches != 1 {
		t.Errorf("breaches = %d, want 1", st.Breaches)
	}
}

// TestObserveReportsBreachOnce checks Observe hands back exactly one
// breach transition for a sustained violation, with a detail line that
// names the objective: the simulator forwards it to its flight
// recorder and hub.
func TestObserveReportsBreachOnce(t *testing.T) {
	e, err := New([]Def{{
		Name: "delay", Agg: AggMax, Series: "delay_p95", Op: OpLT, Threshold: 3,
		FastWindow: 2, SlowWindow: 4, ClearFrames: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var breaches []Transition
	for f := int64(0); f < 20; f++ {
		for _, tr := range e.Observe(tseries.Sample{Frame: f, DelayP95: 10}) { // violates from frame 0
			if tr.To == StateBreach {
				breaches = append(breaches, tr)
			}
		}
	}
	if len(breaches) != 1 {
		t.Fatalf("breach transitions = %+v, want exactly 1", breaches)
	}
	if tr := breaches[0]; tr.Frame != 0 || tr.From != StateOK || !strings.Contains(tr.Detail(), "delay: max(delay_p95) < 3") {
		t.Errorf("breach transition = %+v, detail %q", tr, tr.Detail())
	}
}

func TestReportLine(t *testing.T) {
	e, err := New([]Def{
		{Name: "a", Series: "served", Op: OpGE, Threshold: 0},
		{Name: "b", Agg: AggMax, Series: "delay_p95", Op: OpLT, Threshold: 3, FastWindow: 1, SlowWindow: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, 0, 5, 10) // b violates immediately
	got := e.Report()
	if !strings.Contains(got, "1/2 ok") || !strings.Contains(got, "b BREACH") {
		t.Errorf("Report() = %q", got)
	}
}
