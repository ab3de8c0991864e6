package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stabledispatch/internal/tseries"
)

// kpiServer builds a daemon that has already run a few frames, so
// /v1/timeseries has samples.
func kpiServer(t *testing.T, frames int) *httptest.Server {
	t.Helper()
	ts, srv := startServer(t, testConfig())
	for i := 0; i < frames; i++ {
		if err := srv.step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return ts
}

func getTS(t *testing.T, base, query string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/timeseries" + query)
	if err != nil {
		t.Fatalf("GET /v1/timeseries%s: %v", query, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestTimeseriesJSON(t *testing.T) {
	ts := kpiServer(t, 5)
	resp := getTS(t, ts.URL, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	out := decode[timeseriesOut](t, resp)
	if out.Count != 5 || len(out.Frames) != 5 {
		t.Fatalf("count %d / %d frames, want 5", out.Count, len(out.Frames))
	}
	if out.Stride != 1 {
		t.Errorf("stride %d, want 1", out.Stride)
	}
	// Default query returns every known series, each the full length.
	if len(out.Series) != len(tseries.SeriesNames) {
		t.Errorf("got %d series, want %d", len(out.Series), len(tseries.SeriesNames))
	}
	for name, vals := range out.Series {
		if len(vals) != 5 {
			t.Errorf("series %s has %d values, want 5", name, len(vals))
		}
	}
	for i, f := range out.Frames {
		if f != int64(i) {
			t.Errorf("frame[%d] = %d", i, f)
		}
	}
	// An idle simulation still burns wall clock each frame.
	for i, v := range out.Series["frame_ns"] {
		if v <= 0 {
			t.Errorf("frame_ns[%d] = %v, want > 0", i, v)
		}
	}
}

func TestTimeseriesSeriesSelection(t *testing.T) {
	ts := kpiServer(t, 3)
	resp := getTS(t, ts.URL, "?series=served,queued")
	out := decode[timeseriesOut](t, resp)
	if len(out.Series) != 2 {
		t.Fatalf("got %d series, want 2: %v", len(out.Series), out.Series)
	}
	for _, name := range []string{"served", "queued"} {
		if _, ok := out.Series[name]; !ok {
			t.Errorf("missing series %s", name)
		}
	}
}

func TestTimeseriesBadParams(t *testing.T) {
	ts := kpiServer(t, 2)
	cases := []struct {
		name, query string
	}{
		{"unknown series", "?series=bogus"},
		{"non-numeric from", "?from=abc"},
		{"negative from", "?from=-1"},
		{"to precedes from", "?from=5&to=2"},
		{"zero step", "?step=0"},
		{"non-numeric step", "?step=x"},
		{"zero limit", "?limit=0"},
		{"bad format", "?format=xml"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := getTS(t, ts.URL, tc.query)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			body := decode[map[string]string](t, resp)
			if body["error"] == "" {
				t.Errorf("missing error message in %v", body)
			}
		})
	}
}

func TestTimeseriesWindowAndStep(t *testing.T) {
	ts := kpiServer(t, 10)
	resp := getTS(t, ts.URL, "?from=2&to=7&step=2&series=served")
	out := decode[timeseriesOut](t, resp)
	want := []int64{2, 4, 6}
	if len(out.Frames) != len(want) {
		t.Fatalf("frames %v, want %v", out.Frames, want)
	}
	for i, f := range out.Frames {
		if f != want[i] {
			t.Errorf("frame[%d] = %d, want %d", i, f, want[i])
		}
	}
}

func TestTimeseriesLimitClamp(t *testing.T) {
	ts := kpiServer(t, 10)
	// Explicit small limit keeps the newest samples.
	resp := getTS(t, ts.URL, "?limit=3&series=served")
	out := decode[timeseriesOut](t, resp)
	if out.Count != 3 {
		t.Fatalf("count %d, want 3", out.Count)
	}
	if out.Frames[0] != 7 || out.Frames[2] != 9 {
		t.Errorf("frames %v, want [7 8 9]", out.Frames)
	}
	// A limit beyond the cap is accepted and clamped, not rejected.
	resp = getTS(t, ts.URL, fmt.Sprintf("?limit=%d&series=served", maxTimeseriesLimit*10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oversized limit: status %d, want 200", resp.StatusCode)
	}
	out = decode[timeseriesOut](t, resp)
	if out.Count != 10 {
		t.Errorf("count %d, want all 10 samples", out.Count)
	}
}

func TestTimeseriesCSV(t *testing.T) {
	ts := kpiServer(t, 4)
	resp := getTS(t, ts.URL, "?format=csv&series=served,frame_ns")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Errorf("Content-Type %q, want text/csv; charset=utf-8", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d CSV lines, want header + 4 rows: %q", len(lines), lines)
	}
	if lines[0] != "frame,served,frame_ns" {
		t.Errorf("header %q", lines[0])
	}
	for i, line := range lines[1:] {
		if !strings.HasPrefix(line, fmt.Sprintf("%d,", i)) {
			t.Errorf("row %d = %q, want frame %d first", i, line, i)
		}
	}
}

// TestTimeseriesStageColumns checks the ledger's stage times reach
// /v1/timeseries as stage_<name>_ns series: every frame runs the
// arrivals phase, and the frame that dispatches the one request builds
// a dispatch view.
func TestTimeseriesStageColumns(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 3})
	out := decode[timeseriesOut](t, getTS(t, ts.URL, "?series=stage_view_ns,stage_arrivals_ns"))
	if out.Count != 3 || len(out.Series) != 2 {
		t.Fatalf("count %d, series %v; want 3 frames of 2 series", out.Count, out.Series)
	}
	views := 0
	for i := range out.Frames {
		if out.Series["stage_arrivals_ns"][i] <= 0 {
			t.Errorf("frame %d: stage_arrivals_ns = %v, want > 0", out.Frames[i], out.Series["stage_arrivals_ns"][i])
		}
		if out.Series["stage_view_ns"][i] > 0 {
			views++
		}
	}
	if views != 1 {
		t.Errorf("stage_view_ns = %v, want exactly the dispatching frame positive", out.Series["stage_view_ns"])
	}
}
