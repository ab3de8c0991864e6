package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Writer renders one scrape in the Prometheus text exposition format
// (version 0.0.4). Each call writes one series, named with an optional
// inline label set (`sim_events_total{kind="assign"}`); a call whose
// base name differs from the previous call's opens a new metric family
// under its own # TYPE line, so callers write a family's series back to
// back. WriteTo appends, for every observed histogram, interpolated
// quantile gauge families (<base>_p50, _p95, _p99) so dashboards can
// plot tail latency without histogram_quantile(), then writes the body.
// The zero value is ready to use.
type Writer struct {
	b      []byte
	family string // base name of the family being written
	hists  []histSeries
}

// histSeries is one observed histogram awaiting its quantile gauges.
type histSeries struct {
	base, block string // block is the "{labels}" suffix or ""
	h           *Histogram
}

// Counter writes one counter sample.
func (w *Writer) Counter(series string, v uint64) { w.sample(series, "counter", v) }

// Gauge writes one gauge sample.
func (w *Writer) Gauge(series string, v float64) { w.sample(series, "gauge", v) }

// Histogram writes h as cumulative le-buckets plus _sum and _count.
// Concurrent observers may skew the totals by in-flight observations,
// which Prometheus tolerates.
func (w *Writer) Histogram(series string, h *Histogram) {
	base, labels, _ := strings.Cut(series, "{")
	block := series[len(base):] // "{labels}" or ""
	if labels = strings.TrimSuffix(labels, "}"); labels != "" {
		labels += ","
	}
	w.open(base, "histogram")
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		w.b = fmt.Appendf(w.b, "%s_bucket{%sle=\"%g\"} %d\n", base, labels, le, cum)
	}
	count := h.Count()
	w.b = fmt.Appendf(w.b, "%s_sum%s %g\n%s_count%s %d\n", base, block, h.Sum(), base, block, count)
	if count > 0 {
		w.hists = append(w.hists, histSeries{base, block, h})
	}
}

// WriteTo appends the quantile gauge families and writes the scrape to
// dst. It ends the scrape: the Writer is not reused.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	// One pass per quantile keeps each derived family contiguous: the
	// histograms of one base were written, and so are listed, together.
	for _, qt := range []struct {
		suffix string
		q      float64
	}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
		for _, hs := range w.hists {
			w.Gauge(hs.base+qt.suffix+hs.block, hs.h.Quantile(qt.q))
		}
	}
	n, err := dst.Write(w.b)
	return int64(n), err
}

// sample writes one sample line, opening its family first. %v renders
// counts in decimal and floats in the shortest 'g' form.
func (w *Writer) sample(series, kind string, v any) {
	base, _, _ := strings.Cut(series, "{")
	w.open(base, kind)
	w.b = fmt.Appendf(w.b, "%s %v\n", series, v)
}

// open writes family's # TYPE line unless it is the family being
// written.
func (w *Writer) open(family, kind string) {
	if family != w.family {
		w.b = fmt.Appendf(w.b, "# TYPE %s %s\n", family, kind)
		w.family = family
	}
}
