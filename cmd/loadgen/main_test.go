package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// stubDispatchd mimics the two dispatchd endpoints loadgen talks to.
// Behaviour is scripted per test through the shed counter: the first
// shedFirst POSTs answer 429, the rest 201 with sequential IDs.
type stubDispatchd struct {
	mux        *http.ServeMux
	nextID     atomic.Int64
	posts      atomic.Int64
	shedFirst  int64
	retryAfter string
	drainAll   bool
}

func newStub(shedFirst int64, retryAfter string) *stubDispatchd {
	s := &stubDispatchd{shedFirst: shedFirst, retryAfter: retryAfter}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		n := s.posts.Add(1)
		if s.drainAll {
			w.Header().Set("Retry-After", s.retryAfter)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if n <= s.shedFirst {
			w.Header().Set("Retry-After", s.retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		id := s.nextID.Add(1) - 1
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]int64{"id": id, "frame": 0})
	})
	s.mux.HandleFunc("GET /v1/requests/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "assigned"})
	})
	return s
}

func testRequests(n int) []fleet.Request {
	reqs := make([]fleet.Request, n)
	for i := range reqs {
		reqs[i] = fleet.Request{
			ID:      i,
			Pickup:  geo.Point{X: 1, Y: 1},
			Dropoff: geo.Point{X: 2, Y: 2},
			Seats:   1,
		}
	}
	return reqs
}

func fastReplayConfig() replayConfig {
	return replayConfig{
		FrameInterval: time.Millisecond,
		Concurrency:   4,
		Poll:          time.Millisecond,
		Drain:         time.Second,
		Seed:          1,
	}
}

func TestReplayAllAccepted(t *testing.T) {
	stub := newStub(0, "")
	srv := httptest.NewServer(stub.mux)
	defer srv.Close()

	cl := newClient(srv.URL, time.Second, 0, time.Millisecond)
	rep := replay(cl, testRequests(20), fastReplayConfig())
	if rep.Accepted != 20 || rep.Sent != 20 {
		t.Fatalf("accepted=%d sent=%d, want 20/20", rep.Accepted, rep.Sent)
	}
	if rep.Assigned != 20 {
		t.Fatalf("assigned=%d, want 20", rep.Assigned)
	}
	if rep.ShedRate != 0 {
		t.Fatalf("shed rate %v, want 0", rep.ShedRate)
	}
	if rep.Latency == nil || rep.Latency.P99Seconds < rep.Latency.P50Seconds {
		t.Fatalf("latency summary malformed: %+v", rep.Latency)
	}
	if rep.AdmitWait == nil || rep.AdmitWait.P99Seconds < rep.AdmitWait.P50Seconds {
		t.Fatalf("admission wait summary malformed: %+v", rep.AdmitWait)
	}
	if err := rep.gate(0.5, 20); err != nil {
		t.Fatalf("gate should pass: %v", err)
	}
}

func TestRetryAfterShedThenAccept(t *testing.T) {
	// First two POSTs shed with a zero-second hint; the retry budget
	// covers them, so every request is eventually accepted.
	stub := newStub(2, "0")
	srv := httptest.NewServer(stub.mux)
	defer srv.Close()

	cl := newClient(srv.URL, time.Second, 3, time.Millisecond)
	rep := replay(cl, testRequests(5), fastReplayConfig())
	if rep.Accepted != 5 {
		t.Fatalf("accepted=%d, want 5 (sheds retried)", rep.Accepted)
	}
	if rep.Retries == 0 {
		t.Fatal("want at least one recorded retry")
	}
	if rep.Shed != 0 {
		t.Fatalf("shed=%d, want 0 after retries", rep.Shed)
	}
	// Two requests rode through a shed + backoff before their 201, so
	// the slowest admission wait must show the backoff that the slowest
	// single accepted POST (request→assignment anchor) does not.
	if rep.AdmitWait == nil {
		t.Fatal("admission wait summary missing")
	}
	if rep.AdmitWait.P99Seconds <= 0 {
		t.Fatalf("admission wait p99 = %v, want > 0 (backoff spanned)", rep.AdmitWait.P99Seconds)
	}
}

// TestAdmitWaitSpansRetries pins the admission-wait anchor: sentAt
// restarts on every attempt (request→assignment measures from the
// accepted POST), while admitWait spans the whole shed/backoff chain
// from the first attempt.
func TestAdmitWaitSpansRetries(t *testing.T) {
	stub := newStub(1, "") // first POST sheds, retry accepted
	srv := httptest.NewServer(stub.mux)
	defer srv.Close()

	backoff := 50 * time.Millisecond
	cl := newClient(srv.URL, time.Second, 1, backoff)
	res := cl.send(testRequests(1)[0], newJitter(1))
	if !res.accepted || res.retries != 1 {
		t.Fatalf("send = %+v, want accepted after one retry", res)
	}
	if res.admitWait < backoff {
		t.Fatalf("admitWait %v shorter than the backoff %v it slept", res.admitWait, backoff)
	}
	if got := time.Since(res.sentAt); got > res.admitWait {
		t.Fatalf("sentAt spans the backoff (%v > admitWait %v): per-attempt anchor broken", got, res.admitWait)
	}
}

func TestShedBudgetExhausted(t *testing.T) {
	stub := newStub(1<<30, "0") // shed everything
	srv := httptest.NewServer(stub.mux)
	defer srv.Close()

	cl := newClient(srv.URL, time.Second, 1, time.Millisecond)
	rep := replay(cl, testRequests(8), fastReplayConfig())
	if rep.Shed != 8 {
		t.Fatalf("shed=%d, want 8", rep.Shed)
	}
	if rep.ShedRate != 1 {
		t.Fatalf("shed rate %v, want 1", rep.ShedRate)
	}
	if err := rep.gate(0.5, 0); err == nil {
		t.Fatal("gate should fail at 100% shed")
	}
}

func TestDrainingSheds503(t *testing.T) {
	stub := newStub(0, "1")
	stub.drainAll = true
	srv := httptest.NewServer(stub.mux)
	defer srv.Close()

	cl := newClient(srv.URL, time.Second, 0, time.Millisecond)
	rep := replay(cl, testRequests(3), fastReplayConfig())
	if rep.DrainShed != 3 {
		t.Fatalf("drainShed=%d, want 3", rep.DrainShed)
	}
	if rep.Shed != 0 {
		t.Fatalf("shed=%d, want 0 (503s count separately)", rep.Shed)
	}
}

// TestRunCityNames checks -city resolves through trace.CityByName, so
// the New York aliases replay the New York trace.
func TestRunCityNames(t *testing.T) {
	srv := httptest.NewServer(newStub(0, "").mux)
	defer srv.Close()
	for _, city := range []string{"nyc", "new-york", "NewYork"} {
		var out bytes.Buffer
		err := run([]string{
			"-addr", srv.URL, "-city", city, "-frames", "2", "-volume", "14400",
			"-frame-interval", "1ms", "-stream=false", "-poll", "1ms", "-drain", "1s",
		}, &out)
		if err != nil {
			t.Fatalf("run -city %s: %v", city, err)
		}
		if !strings.Contains(out.String(), `"city": "newyork"`) {
			t.Errorf("run -city %s report:\n%s", city, out.String())
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{"0", 0},
		{"2.5", 2500 * time.Millisecond},
		{"-3", 0},
		{"soon", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(lat, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(lat, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestReportWriteAndGate(t *testing.T) {
	rep := &report{Schema: "loadgen/v1", Accepted: 10, Shed: 10, ShedRate: 0.5, Assigned: 4}
	var buf bytes.Buffer
	if err := rep.write("", &buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(buf.String(), `"schema": "loadgen/v1"`) {
		t.Fatalf("report JSON missing schema: %s", buf.String())
	}
	if err := rep.gate(0.5, 4); err != nil {
		t.Fatalf("boundary gate should pass: %v", err)
	}
	if err := rep.gate(0.49, 0); err == nil {
		t.Fatal("shed gate should fail")
	}
	if err := rep.gate(1, 5); err == nil {
		t.Fatal("assignment gate should fail")
	}
}
