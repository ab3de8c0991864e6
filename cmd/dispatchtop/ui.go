package main

// Terminal rendering: plain ANSI, no dependencies. render produces one
// complete frame as a string; live mode repaints it on the alternate
// screen, -once prints it to stdout verbatim (minus cursor control),
// and CI archives it as an artifact.

import (
	"fmt"
	"strings"
	"time"

	"stabledispatch/internal/prof"
	"stabledispatch/internal/slo"
)

// sparkRunes are the eight block heights of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled into width cells. A flat series renders
// mid-height; missing data renders spaces.
func sparkline(vals []float64, width int) string {
	if width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	if len(vals) == 0 {
		return strings.Repeat(" ", width)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	b.Grow(width * 3)
	if pad := width - len(vals); pad > 0 {
		b.WriteString(strings.Repeat(" ", pad))
	}
	for _, v := range vals {
		idx := len(sparkRunes) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// shareBar renders a 0..1 share as a fixed-width solid bar: the stage
// panel's at-a-glance view of where the frame's budget went.
func shareBar(share float64, width int) string {
	if width <= 0 {
		return ""
	}
	n := int(share*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}

// ANSI helpers; colors degrade to plain text when disabled (-no-color
// and -once default to plain so artifacts and pipes stay readable).
type palette struct{ on bool }

func (p palette) paint(code, s string) string {
	if !p.on {
		return s
	}
	return "\x1b[" + code + "m" + s + "\x1b[0m"
}

func (p palette) state(st slo.State) string {
	s := string(st)
	switch st {
	case slo.StateBreach:
		return p.paint("31;1", s) // bold red
	case slo.StateWarning:
		return p.paint("33", s) // yellow
	case slo.StateRecovered:
		return p.paint("36", s) // cyan
	default:
		return p.paint("32", s) // green
	}
}

func (p palette) dim(s string) string  { return p.paint("2", s) }
func (p palette) bold(s string) string { return p.paint("1", s) }

// kpiRow is one sparkline line in the KPI panel.
type kpiRow struct {
	label  string
	series string
	format string // Printf verb for the current value
}

var kpiRows = []kpiRow{
	{"delay mean", "delay_mean", "%.2f"},
	{"delay p95", "delay_p95", "%.2f"},
	{"queued", "queued", "%.0f"},
	{"served", "served", "%.0f"},
	{"frame ms", "frame_ns", "%.2f"},
	{"intake queue", "admission_queue", "%.0f"},
}

// render draws the whole console frame from the model at the given
// width. It takes the model lock once.
func render(m *model, width int, p palette) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if width < 40 {
		width = 40
	}
	sparkW := width - 30
	if sparkW > 60 {
		sparkW = 60
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s  frame %d  ·  %d msgs  ·  seq %d  ·  %d heartbeats\n",
		p.bold("dispatchtop"), m.frame, m.applied, m.seq, m.heartbeats)
	if m.lastErr != "" {
		fmt.Fprintf(&b, "%s\n", p.paint("31", "! "+m.lastErr))
	}
	b.WriteString(strings.Repeat("─", width) + "\n")

	// KPI sparklines.
	if len(m.kpi) > 0 {
		for _, row := range kpiRows {
			vals := m.series(row.series)
			if len(vals) == 0 {
				continue
			}
			cur := vals[len(vals)-1]
			if row.series == "frame_ns" {
				for i := range vals {
					vals[i] /= 1e6
				}
				cur = vals[len(vals)-1]
			}
			fmt.Fprintf(&b, "  %-13s %s %s\n",
				row.label, sparkline(vals, sparkW), fmt.Sprintf(row.format, cur))
		}
	} else {
		b.WriteString(p.dim("  no KPI samples yet") + "\n")
	}

	// Stage panel: the newest KPI sample's per-stage cost (the ledger
	// seals each frame's stage times into its sample), marked when the
	// frame overran the ledger's budget.
	if n := len(m.kpi); n > 0 && m.kpi[n-1].FrameNs > 0 {
		smp := m.kpi[n-1]
		tag := ""
		if m.overBudget(smp) {
			tag = "  " + p.paint("31;1", "OVERRUN")
		}
		fmt.Fprintf(&b, "\n%s  f%d  wall %.2fms%s\n",
			p.bold("  stages"), smp.Frame, float64(smp.FrameNs)/1e6, tag)
		for i, ns := range smp.StageNs {
			if ns <= 0 {
				continue
			}
			share := float64(ns) / float64(smp.FrameNs)
			fmt.Fprintf(&b, "  %-13s %s %8.3fms %4.0f%%\n",
				prof.StageNames[i], shareBar(share, 20), float64(ns)/1e6, share*100)
		}
		line := fmt.Sprintf("  overruns %d", m.overruns)
		if m.budgetNs > 0 {
			line += fmt.Sprintf("  budget %v", time.Duration(m.budgetNs))
		}
		b.WriteString(p.dim(line) + "\n")
	}

	// SLO table: state with fast/slow burn values.
	if len(m.sloOrder) > 0 {
		b.WriteString("\n" + p.bold("  SLO") + "\n")
		for _, name := range m.sloOrder {
			st := m.slos[name]
			fmt.Fprintf(&b, "  %-20s %-10s fast %-10.3f slow %-10.3f %s\n",
				st.Name, p.state(st.State), st.Fast, st.Slow, p.dim(st.Expr))
		}
	}

	// Admission gauges.
	b.WriteString("\n" + p.bold("  admission") + "\n")
	drain := ""
	if m.adm.Draining {
		drain = "  " + p.paint("33", "DRAINING")
	}
	fmt.Fprintf(&b, "  queue %-6d inflight %-7d accepted %-8d last batch %-5d%s\n",
		m.adm.QueueDepth, m.adm.Inflight, m.adm.Accepted, m.lastIntake, drain)
	if len(m.shed) > 0 {
		b.WriteString("  shed: ")
		first := true
		for _, reason := range []string{"queue_full", "inflight_cap", "draining"} {
			if n, ok := m.shed[reason]; ok {
				if !first {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%s=%d", reason, n)
				first = false
			}
		}
		b.WriteString("\n")
	}

	// Lifecycle event tail.
	if len(m.events) > 0 {
		b.WriteString("\n" + p.bold("  events") + "\n")
		for _, e := range m.events {
			taxi := ""
			if e.TaxiID >= 0 {
				taxi = fmt.Sprintf(" taxi %d", e.TaxiID)
			}
			req := ""
			if e.RequestID >= 0 {
				req = fmt.Sprintf(" req %d", e.RequestID)
			}
			fmt.Fprintf(&b, "  f%-6d %-10s%s%s\n", e.Frame, e.Kind, req, taxi)
		}
	}

	// Notices: degrades, breakdowns.
	if len(m.notices) > 0 {
		b.WriteString("\n" + p.bold("  notices") + "\n")
		for _, n := range m.notices {
			fmt.Fprintf(&b, "  f%-6d %s %s\n", n.Frame, p.paint("33", n.Kind), n.Detail)
		}
	}
	return b.String()
}
