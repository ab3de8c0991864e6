package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseName splits a full metric name into its base name and the inner
// label string (without braces), validating both. Accepted forms:
//
//	requests_total
//	requests_total{code="200"}
//	stage_seconds{stage="matching",algo="nstd-p"}
//
// Label values may not contain quotes, backslashes, or newlines — the
// exporter writes them verbatim.
func parseName(full string) (base, labels string, err error) {
	base = full
	if i := strings.IndexByte(full, '{'); i >= 0 {
		if !strings.HasSuffix(full, "}") {
			return "", "", fmt.Errorf("unterminated label block")
		}
		base, labels = full[:i], full[i+1:len(full)-1]
	}
	if !validBase(base) {
		return "", "", fmt.Errorf("invalid base name %q", base)
	}
	if labels != "" {
		for _, pair := range strings.Split(labels, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !validBase(k) {
				return "", "", fmt.Errorf("invalid label pair %q", pair)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", fmt.Errorf("label value in %q must be quoted", pair)
			}
			if strings.ContainsAny(v[1:len(v)-1], "\"\\\n") {
				return "", "", fmt.Errorf("label value in %q contains unsupported characters", pair)
			}
		}
	}
	return base, labels, nil
}

func validBase(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// seriesName renders a base name with an optional label set, appending
// extra as a final label when non-empty.
func seriesName(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-buckets plus _sum and _count.
// Series sharing a base name are grouped under one # TYPE header by the
// sorted iteration order. Each observed histogram additionally exports
// interpolated-quantile gauge families (<base>_p50, _p95, _p99) so
// dashboards can plot tail latency without histogram_quantile();
// never-observed series are skipped there.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastTyped := ""
	type histSeries struct {
		base, labels string
		h            *Histogram
	}
	var hists []histSeries
	r.Each(func(name string, metric any) {
		base, labels, err := parseName(name)
		if err != nil {
			return // unreachable: names are validated at registration
		}
		kind := ""
		switch metric.(type) {
		case *Counter:
			kind = "counter"
		case *Gauge:
			kind = "gauge"
		case *Histogram:
			kind = "histogram"
		}
		if base != lastTyped {
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, kind)
			lastTyped = base
		}
		switch m := metric.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s %d\n", name, m.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s %s\n", name, formatFloat(m.Value()))
		case *Histogram:
			bounds, cumulative, count, sum := m.snapshot()
			for i, bound := range bounds {
				le := `le="` + formatFloat(bound) + `"`
				fmt.Fprintf(&b, "%s %d\n", seriesName(base+"_bucket", labels, le), cumulative[i])
			}
			fmt.Fprintf(&b, "%s %d\n", seriesName(base+"_bucket", labels, `le="+Inf"`), cumulative[len(cumulative)-1])
			fmt.Fprintf(&b, "%s %s\n", seriesName(base+"_sum", labels, ""), formatFloat(sum))
			fmt.Fprintf(&b, "%s %d\n", seriesName(base+"_count", labels, ""), count)
			if count > 0 {
				hists = append(hists, histSeries{base, labels, m})
			}
		}
	})
	// Interpolated quantiles as derived gauge families (<base>_p50/…),
	// after the real metrics so histogram families stay contiguous. Each
	// family groups every labelled series of one base under one TYPE
	// header; Each iterates in name order, so bases are contiguous.
	quantiles := []struct {
		suffix string
		q      float64
	}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}}
	for i := 0; i < len(hists); {
		j := i
		for j < len(hists) && hists[j].base == hists[i].base {
			j++
		}
		for _, qt := range quantiles {
			fmt.Fprintf(&b, "# TYPE %s gauge\n", hists[i].base+qt.suffix)
			for _, hs := range hists[i:j] {
				fmt.Fprintf(&b, "%s %s\n",
					seriesName(hs.base+qt.suffix, hs.labels, ""), formatFloat(hs.h.Quantile(qt.q)))
			}
		}
		i = j
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
