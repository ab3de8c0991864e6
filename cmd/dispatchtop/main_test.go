package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stabledispatch/internal/stream"
)

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 5); got != "     " {
		t.Fatalf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0, 1, 2, 3}, 4)
	runes := []rune(got)
	if len(runes) != 4 {
		t.Fatalf("sparkline width = %d, want 4", len(runes))
	}
	if runes[0] != sparkRunes[0] || runes[3] != sparkRunes[len(sparkRunes)-1] {
		t.Fatalf("sparkline %q: min/max not at rune extremes", got)
	}
	// Longer than width: keeps the newest tail.
	got = sparkline([]float64{9, 9, 9, 0, 1}, 2)
	if []rune(got)[1] != sparkRunes[len(sparkRunes)-1] {
		t.Fatalf("tailed sparkline %q should end at the max of the kept window", got)
	}
	// Flat series renders mid-height, padded on the left.
	got = sparkline([]float64{5}, 3)
	if !strings.HasPrefix(got, "  ") {
		t.Fatalf("short series %q not left-padded", got)
	}
}

// feed builds the SSE byte stream a daemon would send.
func feed(events ...string) string { return strings.Join(events, "") }

func sse(name string, id int, data string) string {
	return fmt.Sprintf("event: %s\nid: %d\ndata: %s\n\n", name, id, data)
}

const testSnapshot = `{"frame":5,"topics":["kpi","slo","admission","events","notice"],` +
	`"kpi":[{"frame":4,"delayMean":1.5,"delayP95":3,"served":10,"queued":2,"frameNs":1200000},` +
	`{"frame":5,"delayMean":1.2,"delayP95":2.5,"served":12,"queued":1,"frameNs":1100000}],` +
	`"slo":[{"name":"p95-delay","expr":"p95(delay) <= 8","state":"ok","fast":3,"slow":2.8}],` +
	`"admission":{"queueDepth":3,"inflight":7,"accepted":42},` +
	`"events":[{"frame":5,"kind":"assign","requestId":9,"taxiId":1}],` +
	`"prof":{"frames":5,"budgetNs":50000000,"overruns":1,` +
	`"avgWallNs":1150000,"avgAllocs":900,"stages":[]}}`

func TestModelApplyAndRender(t *testing.T) {
	m := newModel(16)
	r := stream.NewReader(strings.NewReader(feed(
		sse("snapshot", 0, testSnapshot),
		// Frame 6 overruns the snapshot's 50ms budget; 70ms of its 90ms
		// went to matching (stage 8) and 15ms to the cost plane (stage 5).
		sse("kpi", 11, `{"frame":6,"delayMean":1.8,"delayP95":3.2,"served":15,"queued":4,"frameNs":90000000,`+
			`"stageNs":[0,0,0,0,0,15000000,0,0,70000000,0,0,0]}`),
		sse("slo", 12, `{"slo":"p95-delay","expr":"p95(delay) <= 8","from":"ok","to":"warning","frame":6,"fast":9,"slow":4}`),
		sse("admission", 13, `{"kind":"shed","id":-1,"reason":"queue_full","queueDepth":64,"inflight":80}`),
		sse("events", 14, `{"frame":6,"kind":"pickup","requestId":9,"taxiId":1}`),
		sse("notice", 15, `{"kind":"degrade","frame":6,"detail":"nstd-p degraded to greedy (deadline)"}`),
		": heartbeat seq=15\n\n",
	)))
	for {
		ev, err := r.ReadEvent()
		if err != nil {
			break
		}
		m.apply(ev)
	}

	if m.frame != 6 {
		t.Fatalf("frame = %d, want 6 after live kpi", m.frame)
	}
	if len(m.kpi) != 3 {
		t.Fatalf("kpi window = %d samples, want 3 (2 snapshot + 1 live)", len(m.kpi))
	}
	if st := m.slos["p95-delay"]; string(st.State) != "warning" || st.Fast != 9 {
		t.Fatalf("slo state after transition = %+v", st)
	}
	if m.adm.QueueDepth != 64 || m.shed["queue_full"] != 1 {
		t.Fatalf("admission after shed = %+v shed=%v", m.adm, m.shed)
	}
	if m.heartbeats != 1 {
		t.Fatalf("heartbeats = %d, want 1", m.heartbeats)
	}
	if m.seq != 15 {
		t.Fatalf("seq = %d, want 15", m.seq)
	}
	// 1 overrun from the snapshot summary + 1 live overrun frame.
	if m.overruns != 2 {
		t.Fatalf("overruns = %d, want 2", m.overruns)
	}

	out := render(m, 100, palette{on: false})
	for _, want := range []string{
		"frame 6", "delay mean", "p95-delay", "warning",
		"queue_full=1", "pickup", "degrade", "nstd-p degraded",
		"stages  f6  wall 90.00ms", "matching", "70.000ms", "cost_plane", "OVERRUN",
		"overruns 2", "budget 50ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("plain palette output contains ANSI escapes")
	}
}

func TestModelSurvivesGarbage(t *testing.T) {
	m := newModel(8)
	m.apply(stream.Event{Name: "kpi", ID: 1, Data: []byte("not json")})
	m.apply(stream.Event{Name: "mystery-topic", ID: 2, Data: []byte(`{}`)})
	if m.lastErr == "" {
		t.Fatal("decode failure not surfaced")
	}
	// Render must still work with a poisoned model.
	if out := render(m, 80, palette{on: false}); !strings.Contains(out, "decode") {
		t.Fatalf("render hides the decode error:\n%s", out)
	}
}

// TestRunOnceAgainstStubDaemon drives the full binary path (flag
// parsing, HTTP connect, SSE parse, render) against a canned daemon:
// the same contract the CI smoke exercises against a real one.
func TestRunOnceAgainstStubDaemon(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stream" {
			http.NotFound(w, r)
			return
		}
		if got := r.URL.Query().Get("topics"); got != "kpi,events" {
			t.Errorf("topics query = %q, want kpi,events", got)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, sse("snapshot", 0, testSnapshot))
	}))
	defer ts.Close()

	var out strings.Builder
	err := run([]string{"-once", "-url", ts.URL, "-topics", "kpi,events"}, &out)
	if err != nil {
		t.Fatalf("run -once: %v", err)
	}
	for _, want := range []string{"dispatchtop", "frame 5", "delay mean", "assign"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-once output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunOnceConnectFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	if err := run([]string{"-once", "-url", ts.URL}, &strings.Builder{}); err == nil {
		t.Fatal("run succeeded against a 400 endpoint")
	}
}

// TestRenderStagePanelFromSnapshot pins the -once path: with only the
// snapshot applied, the stage panel renders the newest snapshot KPI
// sample's stage times and the budget line from the profiler summary
// served with the kpi topic. Live KPI samples over the budget then
// advance the overrun count.
func TestRenderStagePanelFromSnapshot(t *testing.T) {
	m := newModel(16)
	snap := `{"frame":5,"topics":["kpi"],` +
		`"kpi":[{"frame":3,"frameNs":9000000,"stageNs":[0,0,0,0,0,0,0,0,8000000,0,0,0]},` +
		`{"frame":4,"frameNs":2000000,"stageNs":[0,0,0,0,0,0,0,0,1000000,0,0,0]}],` +
		`"prof":{"frames":4,"budgetNs":50000000,"overruns":30,` +
		`"avgWallNs":2000000,"avgAllocs":100,` +
		`"stages":[{"stage":"matching","ns":4000000,"calls":4,"share":0.5}]}}`
	r := stream.NewReader(strings.NewReader(sse("snapshot", 0, snap)))
	ev, err := r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	m.apply(ev)
	if m.overruns != 30 {
		t.Fatalf("overruns = %d, want the snapshot's 30", m.overruns)
	}
	out := render(m, 100, palette{})
	if !strings.Contains(out, "stages  f4  wall 2.00ms") {
		t.Fatalf("newest sample's stage header missing:\n%s", out)
	}
	// Frame 4 spent 1ms of its 2ms in matching.
	if !strings.Contains(out, "matching") || !strings.Contains(out, "1.000ms") || !strings.Contains(out, "50%") {
		t.Fatalf("newest sample's stage row missing:\n%s", out)
	}
	if strings.Contains(out, "OVERRUN") {
		t.Fatalf("frame under budget marked as overrun:\n%s", out)
	}
	if !strings.Contains(out, "overruns 30  budget 50ms") {
		t.Fatalf("budget summary line missing:\n%s", out)
	}

	// Two live frames over the 50ms budget, one under it.
	for i, frameNs := range []int{60000000, 2000000, 70000000} {
		m.apply(stream.Event{Name: "kpi", ID: uint64(i + 1), Data: []byte(fmt.Sprintf(
			`{"frame":%d,"frameNs":%d,"stageNs":[0,0,0,0,0,0,0,0,%d,0,0,0]}`, 5+i, frameNs, frameNs/2))})
	}
	if m.overruns != 32 {
		t.Fatalf("overruns = %d after two live overruns, want 32", m.overruns)
	}
	out = render(m, 100, palette{})
	if !strings.Contains(out, "OVERRUN") || !strings.Contains(out, "overruns 32  budget 50ms") {
		t.Fatalf("live overruns not rendered:\n%s", out)
	}
}
