package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(0.001, 0.01, 0.1, 1)
	// 90 fast observations, 10 slow: p50 in the first bucket, p95+ in
	// the last finite one.
	for i := 0; i < 90; i++ {
		h.Observe(0.0005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if want := 90*0.0005 + 10*0.5; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
	if p50 := h.Quantile(0.50); p50 > 0.001 {
		t.Errorf("p50 = %v, want ≤ 0.001", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.1 || p99 > 1 {
		t.Errorf("p99 = %v, want in (0.1, 1]", p99)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("Quantile on empty histogram = %v, want 0", got)
	}
}

func TestHistogramQuantileExtremes(t *testing.T) {
	h := newHistogram(0.1, 1, 10)
	h.Observe(0.05) // first bucket
	h.Observe(5)    // third bucket
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q=0 = %v, want lower edge 0", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("q=1 = %v, want upper edge 10", got)
	}
	// Out-of-range q clamps rather than extrapolating.
	if lo, hi := h.Quantile(-3), h.Quantile(7); lo != h.Quantile(0) || hi != h.Quantile(1) {
		t.Errorf("clamped quantiles = %v, %v", lo, hi)
	}
}

func TestHistogramQuantileNaN(t *testing.T) {
	h := newHistogram(0.1, 1)
	h.Observe(0.5)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0 (not the top bound)", got)
	}
}

func TestHistogramQuantileAllOverflow(t *testing.T) {
	// Every observation past the last finite bound: all quantiles are
	// the documented lower-bound estimate, the highest finite bound.
	h := newHistogram(0.1, 1)
	for i := 0; i < 5; i++ {
		h.Observe(50)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 1 {
			t.Errorf("Quantile(%v) = %v, want 1", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram(0.1, 1)
	h.Observe(100) // lands in +Inf
	if got := h.Quantile(0.99); got != 1 {
		t.Errorf("tail quantile = %v, want capped at highest bound 1", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	h := newHistogram(0.01, 0.1)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	var w Writer
	w.Counter("hits_total", 3)
	w.Gauge("depth", 2.5)
	w.Histogram(`stage_seconds{stage="matching"}`, h)

	var sb strings.Builder
	if _, err := w.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE hits_total counter\nhits_total 3\n",
		"# TYPE depth gauge\ndepth 2.5\n",
		"# TYPE stage_seconds histogram\n",
		`stage_seconds_bucket{stage="matching",le="0.01"} 1`,
		`stage_seconds_bucket{stage="matching",le="0.1"} 2`,
		`stage_seconds_bucket{stage="matching",le="+Inf"} 3`,
		`stage_seconds_sum{stage="matching"} 5.055`,
		`stage_seconds_count{stage="matching"} 3`,
		"# TYPE stage_seconds_p50 gauge\n",
		"# TYPE stage_seconds_p95 gauge\n",
		"# TYPE stage_seconds_p99 gauge\n",
		`stage_seconds_p50{stage="matching"} `,
		`stage_seconds_p95{stage="matching"} `,
		`stage_seconds_p99{stage="matching"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The derived quantile gauges carry the interpolated values.
	if got := lineValue(t, out, `stage_seconds_p50{stage="matching"}`); got > 0.1 {
		t.Errorf("p50 gauge = %v, want ≤ 0.1", got)
	}
}

// lineValue extracts the sample value of one exposition line.
func lineValue(t *testing.T, out, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in output:\n%s", series, out)
	return 0
}

// TestWritePrometheusQuantileFamilies checks derived families group all
// labelled series of a base under one TYPE header and skip
// never-observed histograms.
func TestWritePrometheusQuantileFamilies(t *testing.T) {
	a, b := newHistogram(0.01, 0.1), newHistogram(0.01, 0.1)
	a.Observe(0.005)
	b.Observe(0.05)
	var w Writer
	w.Histogram(`stage_seconds{stage="a"}`, a)
	w.Histogram(`stage_seconds{stage="b"}`, b)
	w.Histogram("idle_seconds", NewHistogram()) // never observed
	var sb strings.Builder
	if _, err := w.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE stage_seconds_p95 gauge"); got != 1 {
		t.Errorf("p95 TYPE header written %d times, want 1:\n%s", got, out)
	}
	for _, want := range []string{
		`stage_seconds_p95{stage="a"} `,
		`stage_seconds_p95{stage="b"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "idle_seconds_p50") {
		t.Errorf("never-observed histogram got quantile gauges:\n%s", out)
	}
}

// TestWritePrometheusGroupsTypeHeaders checks a family's series written
// back to back share one TYPE header, and the next family opens its own.
func TestWritePrometheusGroupsTypeHeaders(t *testing.T) {
	var w Writer
	w.Counter(`req_total{code="200"}`, 1)
	w.Counter(`req_total{code="404"}`, 1)
	w.Gauge("req_depth", 0)
	var sb strings.Builder
	if _, err := w.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE req_total counter\nreq_total{code=\"200\"} 1\nreq_total{code=\"404\"} 1\n" +
		"# TYPE req_depth gauge\nreq_depth 0\n"
	if got := sb.String(); got != want {
		t.Errorf("output\n%s\nwant\n%s", got, want)
	}
}
