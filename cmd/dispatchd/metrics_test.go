package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/tseries"
)

// interruptAfterStartup sends SIGINT once run has had time to install
// its signal handler and waits for a clean exit.
func interruptAfterStartup(t *testing.T, errCh <-chan error) {
	t.Helper()
	time.Sleep(200 * time.Millisecond)
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down after interrupt")
	}
}

// promSample matches one Prometheus text-format sample line:
// name, optional {label="value",...} block, and a numeric value.
var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_:][a-zA-Z0-9_:]*="[^"]*"(,[a-zA-Z_:][a-zA-Z0-9_:]*="[^"]*")*\})? (\S+)$`)

// scrape fetches url's /v1/metrics, checks every line is a TYPE comment
// or a well-formed sample with a float value, checks each metric family
// has one TYPE line followed by all of its samples, and returns the
// samples keyed by full series name (labels included).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	samples := make(map[string]float64)
	typed := make(map[string]string) // family → kind
	family := ""                     // the family whose samples may follow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "TYPE" {
				t.Errorf("bad comment line %q", line)
				continue
			}
			if _, dup := typed[fields[2]]; dup {
				t.Errorf("family %s has more than one TYPE line", fields[2])
			}
			typed[fields[2]], family = fields[3], fields[2]
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		if fam := sampleFamily(m[1], typed); fam == "" {
			t.Errorf("sample %q comes before its family's TYPE line", line)
		} else if fam != family {
			t.Errorf("sample %q is separated from the rest of family %s", line, fam)
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Errorf("non-numeric value in %q: %v", line, err)
		}
		if _, dup := samples[m[1]+m[2]]; dup {
			t.Errorf("series %s exported twice", m[1]+m[2])
		}
		samples[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("empty metrics body")
	}
	return samples
}

// sampleFamily returns the typed family a sample named name belongs to:
// the name itself, or for a histogram's _bucket, _sum and _count series
// its base. It returns "" when no TYPE line has named the family yet.
func sampleFamily(name string, typed map[string]string) string {
	if _, ok := typed[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] == "histogram" {
			return base
		}
	}
	return ""
}

// TestMetricsEndpointPrometheusFormat checks the exposition format and
// that every series the README documents is served under its name and
// labels.
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	ts := testServer(t)

	// Generate some traffic so every family has observations.
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 3})

	samples := scrape(t, ts.URL)
	names := make(map[string]bool)
	for series := range samples {
		name, _, _ := strings.Cut(series, "{")
		names[name] = true
	}
	for _, want := range []string{
		"sim_frames_total",
		"sim_pending_requests",
		"sim_requests_expired_total",
		"sim_event_sink_errors_total",
		"sim_dispatch_frame_seconds_bucket",
		"sim_dispatch_frame_seconds_count",
		"dispatch_stage_seconds_bucket",
		"dispatch_stage_seconds_p50",
		"roadnet_cache_hits_total",
		"roadnet_cache_misses_total",
		"roadnet_cache_evictions_total",
		"roadnet_cache_size",
		"admission_accepted_total",
		"admission_queue_depth",
		"admission_inject_failures_total",
		"admission_wait_seconds_bucket",
		"admission_wait_seconds_p99",
		"http_request_seconds_count",
		"http_panics_total",
		"stream_dropped_total",
		"stream_subscribers",
		"dtrace_events_evicted_total",
		"dtrace_certificates",
	} {
		if !names[want] {
			t.Errorf("metric family %q missing from exposition", want)
		}
	}
	for _, want := range []string{
		`sim_events_total{kind="assign"}`,
		`sim_faults_total{kind="breakdown"}`,
		`sim_faults_total{kind="driver_cancel"}`,
		`sim_faults_total{kind="passenger_cancel"}`,
		"sim_redispatch_total",
		`dispatch_degraded_frames_total{reason="deadline"}`,
		`dispatch_degraded_frames_total{reason="panic"}`,
		`dispatch_degraded_frames_total{reason="error"}`,
		`admission_shed_total{reason="queue_full"}`,
		`admission_shed_total{reason="inflight_cap"}`,
		`admission_shed_total{reason="draining"}`,
		`http_requests_total{code="201"}`,
		`stream_published_total{topic="kpi"}`,
		`dispatch_stage_seconds_bucket{stage="matching",le="+Inf"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("series %s missing from exposition", want)
		}
	}
}

// TestMetricsOptionalFamilies scrapes a daemon with an SLO engine and a
// flight recorder, so scrape's family checks also cover the series only
// those export: three objectives make each slo_* family multi-series.
func TestMetricsOptionalFamilies(t *testing.T) {
	eng, err := slo.Load("../../ci/overload.slo")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flightrec.New(flightrec.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SLO, cfg.Recorder = eng, rec
	ts, _ := startServer(t, cfg)
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 3})

	samples := scrape(t, ts.URL)
	for _, want := range []string{"flightrec_bundles_total", "flightrec_suppressed_total",
		"flightrec_bundle_errors_total", "slo_breaches_total"} {
		if _, ok := samples[want]; !ok {
			t.Errorf("series %s missing from exposition", want)
		}
	}
	for _, name := range []string{"shed_rate", "backlog", "pending_backlog"} {
		for _, family := range []string{"slo_state", "slo_value_fast", "slo_value_slow"} {
			series := family + `{slo="` + name + `"}`
			if _, ok := samples[series]; !ok {
				t.Errorf("series %s missing from exposition", series)
			}
		}
	}
}

// TestMetricsArePerServer runs two daemon stacks in one process and
// sends traffic to only one. The idle server's /v1/metrics must show
// none of it, and the busy server's counts must equal its own
// simulator's and admission controller's — its stage histograms
// included: each dispatch_stage_seconds_count is the number of its
// retained KPI samples that ran the stage.
func TestMetricsArePerServer(t *testing.T) {
	busyTS, busy := startServer(t, testConfig())
	idleTS, idleSrv := startServer(t, testConfig())

	for i := 0; i < 3; i++ {
		postJSON(t, busyTS.URL+"/v1/requests", requestIn{
			Pickup:  pointJSON{X: 10 + float64(i)/2, Y: 10},
			Dropoff: pointJSON{X: 14, Y: 10},
		})
	}
	postJSON(t, busyTS.URL+"/v1/tick", tickIn{Frames: 4})
	// Overflow the busy daemon's event ring, so its eviction counter is
	// non-zero.
	tr := busy.sim.Tracer()
	for id := 0; id <= dtrace.DefaultCapacity; id++ {
		tr.Record(1_000_000+id, dtrace.Event{Kind: dtrace.KindCandidates})
	}

	idle := scrape(t, idleTS.URL)
	for _, series := range []string{"sim_frames_total", "admission_accepted_total", `sim_events_total{kind="assign"}`,
		"dtrace_events_evicted_total", "dtrace_certificates"} {
		if got, ok := idle[series]; !ok || got != 0 {
			t.Errorf("idle server %s = %v, want 0", series, got)
		}
	}
	for _, name := range prof.StageNames {
		series := `dispatch_stage_seconds_count{stage="` + name + `"}`
		if got, ok := idle[series]; !ok || got != 0 {
			t.Errorf("idle server %s = %v (exported %v), want 0", series, got, ok)
		}
	}
	for series := range idle {
		if strings.HasPrefix(series, "http_requests_total") {
			t.Errorf("idle server exports %s = %v before serving any request", series, idle[series])
		}
	}

	got := scrape(t, busyTS.URL)
	var c sim.Counts
	busy.locked(func() { c = busy.sim.Counts() })
	ts := busy.sim.Tracer().Stats()
	shed := got[`admission_shed_total{reason="queue_full"}`] + got[`admission_shed_total{reason="inflight_cap"}`] +
		got[`admission_shed_total{reason="draining"}`]
	for _, tc := range []struct {
		series string
		got    float64
		want   int
	}{
		{"sim_frames_total", got["sim_frames_total"], c.Frame},
		{"sim_pending_requests", got["sim_pending_requests"], c.Pending},
		{"admission_accepted_total", got["admission_accepted_total"], busy.adm.Accepted()},
		{"admission_shed_total", shed, busy.adm.Shed()},
		{`http_requests_total{code="201"}`, got[`http_requests_total{code="201"}`], 3},
		{"dtrace_events_evicted_total", got["dtrace_events_evicted_total"], int(ts.Evicted)},
		{"dtrace_certificates", got["dtrace_certificates"], ts.Certificates},
	} {
		if tc.got != float64(tc.want) {
			t.Errorf("busy server %s = %v, want %d", tc.series, tc.got, tc.want)
		}
	}
	samples := busy.sim.KPISeries()
	if got := got["sim_dispatch_frame_seconds_count"]; got != float64(len(samples)) {
		t.Errorf("busy server sim_dispatch_frame_seconds_count = %v, want its %d samples", got, len(samples))
	}
	for i, name := range prof.StageNames {
		ran := 0
		for _, smp := range samples {
			if smp.StageNs[i] > 0 {
				ran++
			}
		}
		series := `dispatch_stage_seconds_count{stage="` + name + `"}`
		if got[series] != float64(ran) {
			t.Errorf("busy server %s = %v, want %d", series, got[series], ran)
		}
	}
	if got[`dispatch_stage_seconds_count{stage="view"}`] == 0 {
		t.Error("busy server dispatched no frame: the stage check proves nothing")
	}
	if c.Frame != 4 || busy.adm.Accepted() != 3 {
		t.Errorf("busy server ran %d frames and accepted %d requests, want 4 and 3", c.Frame, busy.adm.Accepted())
	}
	if ts.Evicted == 0 || ts.Certificates != 4 {
		t.Errorf("busy trace recorder %+v: want evictions and 4 certificates", ts)
	}
	if st := idleSrv.sim.Tracer().Stats(); st != (dtrace.Stats{}) {
		t.Errorf("idle trace recorder %+v, want empty", st)
	}
}

// TestMetricsScrapeDuringTraffic scrapes /v1/metrics while requests
// arrive and frames tick on other goroutines; run under -race it pins
// that every series is read from its owner under the owner's own
// synchronisation.
func TestMetricsScrapeDuringTraffic(t *testing.T) {
	ts := testServer(t)
	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}
	var wg sync.WaitGroup
	for _, work := range []func(){
		func() { post("/v1/requests", `{"pickup":{"x":10.5,"y":10},"dropoff":{"x":12,"y":10}}`) },
		func() { post("/v1/tick", `{"frames":1}`) },
		func() { get("/v1/metrics") },
		func() { get("/v1/metrics") },
	} {
		wg.Add(1)
		go func(work func()) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				work()
			}
		}(work)
	}
	wg.Wait()
	if got := scrape(t, ts.URL)["sim_frames_total"]; got != 20 {
		t.Errorf("sim_frames_total = %v after 20 ticks", got)
	}
}

func TestWithObsCountsRequests(t *testing.T) {
	metrics := newHTTPMetrics()
	handler := withObs(nil, metrics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	ts := httptest.NewServer(handler)
	defer ts.Close()

	for _, path := range []string{"/", "/boom", "/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if got := metrics.codes[200].Load(); got != 2 {
		t.Errorf("200 counter = %d, want 2", got)
	}
	if got := metrics.codes[404].Load(); got != 1 {
		t.Errorf("404 counter = %d, want 1", got)
	}
	if got := metrics.seconds.Count(); got != 3 {
		t.Errorf("http_request_seconds count = %d, want 3", got)
	}
}

// TestStreamNotTimedAsRequest holds a stream open for a second against
// an idle daemon: its 200 is counted, but http_request_seconds, the
// API latency histogram, must not take its lifetime.
func TestStreamNotTimedAsRequest(t *testing.T) {
	ts, srv := startServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	count, p99, ok := srv.http.seconds.Count(), srv.http.seconds.Quantile(0.99), srv.http.codes[200].Load()

	conn, err := http.Get(ts.URL + streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if conn.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", conn.StatusCode)
	}
	time.Sleep(time.Second)
	conn.Body.Close()
	waitFor(t, func() bool { return srv.http.codes[200].Load() == ok+1 })

	if got := srv.http.seconds.Count(); got != count {
		t.Errorf("http_request_seconds_count = %d after the stream, want %d", got, count)
	}
	if got := srv.http.seconds.Quantile(0.99); got != p99 {
		t.Errorf("http_request_seconds_p99 = %v after the stream, want %v", got, p99)
	}
}

// TestRouteErrorsAreJSON checks a request no route matches gets the
// JSON error envelope every handler error uses, with ServeMux's status
// and, on a 405, its Allow header, while ServeMux's redirect of a
// non-canonical path reaches the client as ServeMux wrote it. The
// routes dispatchd no longer serves are pinned to that 404.
func TestRouteErrorsAreJSON(t *testing.T) {
	ts := testServer(t)
	notFound := http.Header{"Content-Type": {"application/json"}, "Allow": nil}
	redirect := httptest.NewRecorder()
	http.RedirectHandler("/v1/nope", http.StatusMovedPermanently).ServeHTTP(redirect, httptest.NewRequest(http.MethodGet, "/v1//nope", nil))
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	for _, tc := range []struct {
		method, path string
		code         int
		header       http.Header
		body         string
	}{
		{http.MethodPut, "/v1/tick", http.StatusMethodNotAllowed,
			http.Header{"Content-Type": {"application/json"}, "Allow": {"POST"}}, `{"error":"PUT /v1/tick: method not allowed"}`},
		{http.MethodGet, "/v1/nope", http.StatusNotFound, notFound, `{"error":"GET /v1/nope: not found"}`},
		{http.MethodGet, "/v1/timeseries", http.StatusNotFound, notFound, `{"error":"GET /v1/timeseries: not found"}`},
		{http.MethodGet, "/v1/taxis", http.StatusNotFound, notFound, `{"error":"GET /v1/taxis: not found"}`},
		{http.MethodPost, "/v1/chaos", http.StatusNotFound, notFound, `{"error":"POST /v1/chaos: not found"}`},
		{http.MethodGet, "/v1/traces/3", http.StatusNotFound, notFound, `{"error":"GET /v1/traces/3: not found"}`},
		{http.MethodGet, "/v1/slo", http.StatusNotFound, notFound, `{"error":"GET /v1/slo: not found"}`},
		{http.MethodPost, "/v1/debug/bundle", http.StatusNotFound, notFound, `{"error":"POST /v1/debug/bundle: not found"}`},
		{http.MethodGet, "/v1//nope", http.StatusMovedPermanently,
			http.Header{"Content-Type": {redirect.Header().Get("Content-Type")}, "Location": {"/v1/nope"}}, strings.TrimSpace(redirect.Body.String())},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.code)
		}
		for k, v := range tc.header {
			if got := resp.Header.Values(k); !slices.Equal(got, v) {
				t.Errorf("%s %s: %s %q, want %q", tc.method, tc.path, k, got, v)
			}
		}
		if got := strings.TrimSpace(string(body)); got != tc.body {
			t.Errorf("%s %s: body %s, want %s", tc.method, tc.path, got, tc.body)
		}
	}
}

// TestProfileIncludesStageBreakdown checks /v1/profile serves the frame
// latency and per-stage distributions over the KPI ring, and that
// /v1/report no longer repeats them.
func TestProfileIncludesStageBreakdown(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 2})

	resp, err := http.Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	profile := decode[profileOut](t, resp)
	if profile.FrameLatency == nil || profile.FrameLatency.Count == 0 {
		t.Errorf("frame latency missing: %+v", profile.FrameLatency)
	}
	stages := make(map[string]tseries.StageSummary)
	for _, st := range profile.Stages {
		stages[st.Stage] = st
	}
	for _, want := range []string{"idle_scan", "pref_build", "matching"} {
		if stages[want].Count == 0 {
			t.Errorf("stage %q missing from profile (got %v)", want, profile.Stages)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	report := decode[map[string]any](t, resp)
	for _, gone := range []string{"frameLatency", "stages"} {
		if _, ok := report[gone]; ok {
			t.Errorf("/v1/report still carries %q", gone)
		}
	}
	if report["served"] != 1.0 {
		t.Errorf("/v1/report served = %v, want 1", report["served"])
	}
}

// TestTimeseriesStageColumns checks each frame's stage columns in the
// KPI ring are that frame's own, as /v1/profile summarises them: every
// frame runs the arrivals phase, and only the frame that dispatches the
// request builds a dispatch view.
func TestTimeseriesStageColumns(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 3})

	resp, err := http.Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	profile := decode[profileOut](t, resp)
	if profile.FrameLatency == nil || profile.FrameLatency.Count != 3 {
		t.Fatalf("frame latency %+v, want 3 frames", profile.FrameLatency)
	}
	stages := make(map[string]tseries.StageSummary)
	for _, st := range profile.Stages {
		stages[st.Stage] = st
	}
	if stages["arrivals"].Count != 3 || stages["view"].Count != 1 {
		t.Errorf("arrivals in %d frames, view in %d; want 3 and 1", stages["arrivals"].Count, stages["view"].Count)
	}
}

func TestRunWithDebugListener(t *testing.T) {
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-addr", "127.0.0.1:0", "-taxis", "2", "-quiet",
			"-debug-addr", "127.0.0.1:0",
		})
	}()
	interruptAfterStartup(t, errCh)
}
