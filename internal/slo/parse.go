package slo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The SLO file is line-oriented, one objective per line:
//
//	name: [agg(]series[, series2][)] op threshold [fast=N] [slow=N] [clear=N]
//
// Blank lines and #-comments are skipped. The threshold accepts a %
// suffix (1% == 0.01). Examples:
//
//	delay_p95:  max(delay_p95) < 3            fast=5 slow=60
//	expired:    frac(expired, served) < 1%    fast=5 slow=60 clear=20
//	degraded:   delta(degraded_frames) == 0
//	stability:  stability_violations == 0
//	throughput: rate(served) > 0.5

// ParseLine parses one objective line (without comments).
func ParseLine(line string) (Def, error) {
	var d Def
	name, rest, ok := strings.Cut(line, ":")
	if !ok {
		return d, fmt.Errorf("slo: missing \"name:\" in %q", line)
	}
	d.Name = strings.TrimSpace(name)
	if d.Name == "" || strings.ContainsAny(d.Name, " \t") {
		return d, fmt.Errorf("slo: bad objective name %q", name)
	}

	fields := strings.Fields(rest)
	// Re-join so "frac(expired, served)" survives field splitting, then
	// re-split on the operator.
	expr := strings.Join(fields, " ")
	opIdx := -1
	var op Op
	for _, cand := range []Op{OpLE, OpGE, OpEQ, OpNE, OpLT, OpGT} { // two-char ops first
		if i := strings.Index(expr, " "+string(cand)+" "); i >= 0 {
			opIdx, op = i, cand
			break
		}
	}
	if opIdx < 0 {
		return d, fmt.Errorf("slo %s: no comparison operator in %q", d.Name, expr)
	}
	d.Op = op
	lhs := strings.TrimSpace(expr[:opIdx])
	rhs := strings.Fields(expr[opIdx+len(op)+2:])
	if len(rhs) == 0 {
		return d, fmt.Errorf("slo %s: missing threshold", d.Name)
	}

	// LHS: bare series, or agg(series[, series2]).
	if open := strings.IndexByte(lhs, '('); open >= 0 {
		if !strings.HasSuffix(lhs, ")") {
			return d, fmt.Errorf("slo %s: unbalanced parens in %q", d.Name, lhs)
		}
		d.Agg = Agg(strings.TrimSpace(lhs[:open]))
		args := strings.Split(lhs[open+1:len(lhs)-1], ",")
		d.Series = strings.TrimSpace(args[0])
		if len(args) > 1 {
			d.Series2 = strings.TrimSpace(args[1])
		}
		if len(args) > 2 {
			return d, fmt.Errorf("slo %s: too many series in %q", d.Name, lhs)
		}
	} else {
		d.Agg = AggLast
		d.Series = lhs
	}

	// Threshold, with % shorthand.
	tok := rhs[0]
	pct := strings.HasSuffix(tok, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(tok, "%"), 64)
	if err != nil || math.IsNaN(v) {
		// A NaN bound fails every comparison: the objective could never
		// be healthy.
		return d, fmt.Errorf("slo %s: bad threshold %q", d.Name, tok)
	}
	if pct {
		v /= 100
	}
	d.Threshold = v

	// Optional key=val window settings.
	for _, kv := range rhs[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return d, fmt.Errorf("slo %s: bad option %q", d.Name, kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return d, fmt.Errorf("slo %s: bad %s value %q", d.Name, key, val)
		}
		switch key {
		case "fast":
			d.FastWindow = n
		case "slow":
			d.SlowWindow = n
		case "clear":
			d.ClearFrames = n
		default:
			return d, fmt.Errorf("slo %s: unknown option %q", d.Name, key)
		}
	}
	// Validate eagerly so file errors carry line context.
	return d.withDefaults()
}

// Parse reads a whole SLO file.
func Parse(r io.Reader) ([]Def, error) {
	var defs []Def
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		d, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		defs = append(defs, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return defs, nil
}

// ParseFile loads an SLO file from disk.
func ParseFile(path string) ([]Def, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defs, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return defs, nil
}

// Load parses a file and builds an engine in one step.
func Load(path string) (*Engine, error) {
	defs, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	return New(defs)
}
