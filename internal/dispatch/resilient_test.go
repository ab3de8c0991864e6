package dispatch

import (
	"errors"
	"maps"
	"testing"
	"time"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
)

// fakeDispatcher misbehaves on demand: sleeps past the deadline,
// panics, or fails — while recording whether it was invoked.
type fakeDispatcher struct {
	name   string
	sleep  time.Duration
	panics bool
	err    error
	out    []fleet.Assignment
	calls  int
}

func (d *fakeDispatcher) Name() string { return d.name }

func (d *fakeDispatcher) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	d.calls++
	if d.sleep > 0 {
		time.Sleep(d.sleep)
	}
	if d.panics {
		panic("synthetic dispatcher explosion")
	}
	return d.out, d.err
}

// resilientFrame is a one-request, one-idle-taxi frame on which Greedy
// deterministically assigns taxi 3 to request 1.
func resilientFrame() *sim.Frame {
	return &sim.Frame{
		Number:   0,
		Requests: []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Seats: 1}},
		Taxis:    []sim.TaxiView{{ID: 3, Pos: geo.Point{}, Seats: 3, Idle: true}},
		Metric:   geo.EuclidMetric,
		Params:   pref.DefaultParams(),
	}
}

// simCapture keeps a dispatcher's own output and hands the simulator
// none, so a fake's made-up assignments never reach the engine.
type simCapture struct {
	d   sim.Dispatcher
	out []fleet.Assignment
	err error
}

func (c *simCapture) Name() string { return c.d.Name() }

func (c *simCapture) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	c.out, c.err = c.d.Dispatch(f)
	return nil, nil
}

// dispatchInSim runs d on the first frame of a simulator holding
// resilientFrame's world, returning d's output and that simulator's
// degraded-frame counts by reason.
func dispatchInSim(t *testing.T, d sim.Dispatcher) ([]fleet.Assignment, map[string]int, error) {
	t.Helper()
	f := resilientFrame()
	c := &simCapture{d: d}
	s, err := sim.New(sim.Config{Dispatcher: c, Params: f.Params},
		[]fleet.Taxi{{ID: 3, Seats: 3}}, f.Requests)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	return c.out, s.Stats().Degraded, c.err
}

func TestResilientHealthyPrimaryPassesThrough(t *testing.T) {
	want := []fleet.Assignment{{TaxiID: 99, Requests: []int{1}}}
	primary := &fakeDispatcher{name: "ok", out: want}
	fallback := &fakeDispatcher{name: "never"}
	r := NewResilient(primary, fallback, time.Second)
	got, degraded, err := dispatchInSim(t, r)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if len(got) != 1 || got[0].TaxiID != 99 {
		t.Fatalf("got %+v, want the primary's assignment", got)
	}
	if fallback.calls != 0 {
		t.Error("fallback invoked on a healthy frame")
	}
	if len(degraded) != 0 {
		t.Errorf("degraded counts %v on a healthy frame", degraded)
	}
	if r.Name() != "ok+failsafe" {
		t.Errorf("Name() = %q", r.Name())
	}
}

func TestResilientDeadlineDegradesToFallback(t *testing.T) {
	const deadline = 30 * time.Millisecond
	primary := &fakeDispatcher{name: "slow", sleep: 2 * time.Second}
	r := NewResilient(primary, nil, deadline) // nil fallback → Greedy
	start := time.Now()
	got, degraded, err := dispatchInSim(t, r)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	// The frame still completes: Greedy assigns the only idle taxi.
	if len(got) != 1 || got[0].TaxiID != 3 || len(got[0].Requests) != 1 || got[0].Requests[0] != 1 {
		t.Fatalf("fallback assignments = %+v, want taxi 3 → request 1", got)
	}
	if want := map[string]int{"deadline": 1}; !maps.Equal(degraded, want) {
		t.Errorf("degraded counts = %v, want %v", degraded, want)
	}
	// Frame latency is bounded by the deadline plus the fallback's
	// (near-instant on one taxi) cost — nowhere near the primary's 2s.
	if elapsed > deadline+500*time.Millisecond {
		t.Errorf("frame took %v, want ≈ deadline %v + fallback cost", elapsed, deadline)
	}
}

func TestResilientPanicDegradesToFallback(t *testing.T) {
	primary := &fakeDispatcher{name: "boom", panics: true}
	fallback := &fakeDispatcher{name: "safe", out: []fleet.Assignment{{TaxiID: 3, Requests: []int{1}}}}
	r := NewResilient(primary, fallback, time.Second)
	got, degraded, err := dispatchInSim(t, r)
	if err != nil {
		t.Fatalf("Dispatch after primary panic: %v", err)
	}
	if fallback.calls != 1 {
		t.Fatalf("fallback calls = %d, want 1", fallback.calls)
	}
	if len(got) != 1 || got[0].TaxiID != 3 {
		t.Fatalf("got %+v, want the fallback's assignment", got)
	}
	if want := map[string]int{"panic": 1}; !maps.Equal(degraded, want) {
		t.Errorf("degraded counts = %v, want %v", degraded, want)
	}
}

func TestResilientErrorDegradesToFallback(t *testing.T) {
	primary := &fakeDispatcher{name: "bad", err: errors.New("solver wedged")}
	fallback := &fakeDispatcher{name: "safe"}
	r := NewResilient(primary, fallback, time.Second)
	_, degraded, err := dispatchInSim(t, r)
	if err != nil {
		t.Fatalf("Dispatch after primary error: %v", err)
	}
	if fallback.calls != 1 {
		t.Fatalf("fallback calls = %d, want 1", fallback.calls)
	}
	if want := map[string]int{"error": 1}; !maps.Equal(degraded, want) {
		t.Errorf("degraded counts = %v, want %v", degraded, want)
	}
}

func TestResilientFallbackPanicSurfacesAsError(t *testing.T) {
	primary := &fakeDispatcher{name: "boom", panics: true}
	fallback := &fakeDispatcher{name: "alsoboom", panics: true}
	r := NewResilient(primary, fallback, time.Second)
	if _, err := r.Dispatch(resilientFrame()); err == nil {
		t.Fatal("both dispatchers panicked but Dispatch returned nil error")
	}
}

// TestResilientFrameLatencyBounded runs many frames against a primary
// that alternates healthy and pathological behaviour and checks the
// p99 frame latency stays bounded by deadline + fallback cost.
func TestResilientFrameLatencyBounded(t *testing.T) {
	const deadline = 20 * time.Millisecond
	frame := resilientFrame()
	var latencies []time.Duration
	for i := 0; i < 30; i++ {
		var primary sim.Dispatcher
		switch i % 3 {
		case 0:
			primary = &fakeDispatcher{name: "ok", out: nil}
		case 1:
			primary = &fakeDispatcher{name: "slow", sleep: time.Second}
		default:
			primary = &fakeDispatcher{name: "boom", panics: true}
		}
		r := NewResilient(primary, &fakeDispatcher{name: "safe"}, deadline)
		start := time.Now()
		if _, err := r.Dispatch(frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		latencies = append(latencies, time.Since(start))
	}
	worst := time.Duration(0)
	for _, l := range latencies {
		if l > worst {
			worst = l
		}
	}
	if worst > deadline+500*time.Millisecond {
		t.Errorf("worst frame latency %v, want bounded by deadline %v + fallback cost", worst, deadline)
	}
}

// straddlingPrimary holds frame 0's packing span open past the
// Resilient deadline. Its frame-1 call releases that span and returns
// only once it has ended, so the abandoned span closes inside frame 1.
type straddlingPrimary struct {
	release, ended chan struct{}
}

func (d *straddlingPrimary) Name() string { return "straddler" }

func (d *straddlingPrimary) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	if f.Number == 0 {
		sp := f.Ledger.Begin(prof.StagePacking)
		<-d.release
		sp.End()
		close(d.ended)
		return nil, nil
	}
	close(d.release)
	<-d.ended
	return nil, nil
}

// TestAbandonedPrimarySpanStaysOutOfNextFrame pins span attribution
// across frames: a span the abandoned primary opened in frame 0 and
// ends during frame 1 belongs to neither frame's ledger entry, so frame
// 1's stage sum cannot exceed its wall-clock on the primary's account.
func TestAbandonedPrimarySpanStaysOutOfNextFrame(t *testing.T) {
	ld := prof.New(prof.Config{})
	primary := &straddlingPrimary{release: make(chan struct{}), ended: make(chan struct{})}
	fallback := &fakeDispatcher{name: "quiet"}
	r := NewResilient(primary, fallback, 50*time.Millisecond)
	for n := 0; n < 2; n++ {
		f := resilientFrame()
		f.Number, f.Ledger = n, ld
		ld.BeginFrame(int64(n), nil)
		if _, err := r.Dispatch(f); err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		sealed := ld.EndFrame(int64(n), int64(time.Second), 0)
		if got := sealed.StageCalls[prof.StagePacking]; got != 0 {
			t.Errorf("frame %d: %d packing calls, want 0 (the span began in frame 0 and ended in frame 1)", n, got)
		}
	}
	if fallback.calls != 1 {
		t.Errorf("fallback calls = %d, want 1 (frame 0's deadline only)", fallback.calls)
	}
}
