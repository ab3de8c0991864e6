package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"stabledispatch/internal/tseries"
)

// GET /v1/timeseries — the per-frame KPI trajectory of the live run.
//
// Query parameters (all optional, all strictly parsed):
//
//	series  comma-separated series names (default: all of
//	        tseries.SeriesNames)
//	from    first frame, inclusive (default 0)
//	to      last frame, inclusive (default: latest)
//	step    keep every step-th retained sample (default 1)
//	limit   max samples returned, newest kept (default and cap 10000)
//	format  json (default) or csv
//
// The JSON payload is column-oriented — one frames array plus one value
// array per requested series — so plotting clients can feed it straight
// to a chart without pivoting; CSV serves the same columns for
// spreadsheet and gnuplot workflows.

// maxTimeseriesLimit caps one response's sample count.
const maxTimeseriesLimit = 10000

// timeseriesOut is the JSON wire shape of one time-series query.
type timeseriesOut struct {
	// Stride is the ring's current recording stride (frames between
	// retained samples once downsampling has compacted).
	Stride int `json:"stride"`
	// Count is the number of samples returned.
	Count  int                  `json:"count"`
	Frames []int64              `json:"frames"`
	Series map[string][]float64 `json:"series"`
}

// parseSeriesParam validates the comma-separated series list, defaulting
// to every known series.
func parseSeriesParam(raw string) ([]string, error) {
	if raw == "" {
		return tseries.SeriesNames, nil
	}
	names := strings.Split(raw, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if !tseries.ValidSeries(names[i]) {
			return nil, fmt.Errorf("unknown series %q (want one of %s)",
				names[i], strings.Join(tseries.SeriesNames, ", "))
		}
	}
	return names, nil
}

// queryInt strictly parses one integer query parameter, returning def
// when absent.
func queryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, raw)
	}
	return n, nil
}

func (s *server) getTimeseries(w http.ResponseWriter, r *http.Request) {
	series, err := parseSeriesParam(r.URL.Query().Get("series"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	from, err := queryInt(r, "from", 0)
	if err == nil && from < 0 {
		err = fmt.Errorf("bad from %d: must be non-negative", from)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	to, err := queryInt(r, "to", -1)
	if err == nil && to >= 0 && to < from {
		err = fmt.Errorf("bad window [%d,%d]: to precedes from", from, to)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	step, err := queryInt(r, "step", 1)
	if err == nil && step < 1 {
		err = fmt.Errorf("bad step %d: must be at least 1", step)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	limit, err := queryInt(r, "limit", maxTimeseriesLimit)
	if err == nil && limit < 1 {
		err = fmt.Errorf("bad limit %d: must be at least 1", limit)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if limit > maxTimeseriesLimit {
		limit = maxTimeseriesLimit
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad format %q (want json or csv)", format))
		return
	}

	// The recorder carries its own lock; no server lock needed.
	rec := s.sim.KPIRecorder()
	samples, stride := rec.Window(int64(from), int64(to), step), rec.Stride()
	if len(samples) > limit {
		// Keep the newest: a bounded page wants the tail of the run.
		samples = samples[len(samples)-limit:]
	}

	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := tseries.WriteCSV(w, samples, series); err != nil {
			// Header already out; the client sees a truncated body.
			return
		}
		return
	}
	out := timeseriesOut{
		Stride: stride,
		Count:  len(samples),
		Frames: make([]int64, len(samples)),
		Series: make(map[string][]float64, len(series)),
	}
	for _, name := range series {
		out.Series[name] = make([]float64, len(samples))
	}
	for i, smp := range samples {
		out.Frames[i] = smp.Frame
		for _, name := range series {
			v, _ := smp.Value(name)
			out.Series[name][i] = v
		}
	}
	writeJSON(w, http.StatusOK, out)
}
