package main

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

// qualityKPIs projects a sample onto its dispatch-quality fields,
// dropping runtime cost (FrameNs, Allocs), process-global cache and
// degrade counters, and the admission series — everything that can
// legitimately differ between a batch run and a daemon run of the same
// trace.
type qualityKPIs struct {
	Frame                               int64
	DelayMean, DelayP95                 float64
	Served, Queued, Expired, SharedOnes int64
	PassDissMean, TaxiDissMean          float64
	StabilityViolations                 int64
}

func quality(s tseries.Sample) qualityKPIs {
	return qualityKPIs{
		Frame:               s.Frame,
		DelayMean:           s.DelayMean,
		DelayP95:            s.DelayP95,
		Served:              s.Served,
		Queued:              s.Queued,
		Expired:             s.Expired,
		SharedOnes:          s.SharedRides,
		PassDissMean:        s.PassDissMean,
		TaxiDissMean:        s.TaxiDissMean,
		StabilityViolations: s.StabilityViolations,
	}
}

// TestAdmissionDeterminismPin is the PR's core correctness claim: a
// trace replayed through the HTTP front door — admission queue, batch
// injection at the frame boundary — produces frame-for-frame identical
// dispatch KPIs to the same trace run directly against the engine. The
// admission layer must be invisible to the dispatch output.
func TestAdmissionDeterminismPin(t *testing.T) {
	traceCfg := trace.Config{City: trace.Boston(), Frames: 30, RequestsPerDay: 6000, Seats: 3, Seed: 42}
	reqs, err := trace.Generate(traceCfg)
	if err != nil {
		t.Fatalf("trace.Generate: %v", err)
	}
	if len(reqs) == 0 {
		t.Fatal("empty trace")
	}
	const taxiCount, frames = 30, 90
	newTaxis := func() []fleet.Taxi {
		taxis, err := trace.Taxis(traceCfg.City, taxiCount, 7)
		if err != nil {
			t.Fatalf("trace.Taxis: %v", err)
		}
		return taxis
	}

	// Reference: direct injection, the taxisim path.
	kpiDirect := tseries.New(tseries.Config{Capacity: frames})
	direct, err := sim.New(sim.Config{
		Params:     pref.DefaultParams(),
		Dispatcher: dispatch.NewNSTDP(),
		KPI:        kpiDirect,
	}, newTaxis(), nil)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	next := 0
	for f := 0; f < frames; f++ {
		for next < len(reqs) && reqs[next].Frame == f {
			if err := direct.Inject(reqs[next]); err != nil {
				t.Fatalf("direct inject %d: %v", reqs[next].ID, err)
			}
			next++
		}
		if err := direct.Step(); err != nil {
			t.Fatalf("direct step %d: %v", f, err)
		}
	}

	// Candidate: the same trace POSTed over HTTP in arrival order, one
	// tick per frame.
	ts, srv := startServer(t, config{
		Taxis:      newTaxis(),
		Params:     pref.DefaultParams(),
		Dispatcher: dispatch.NewNSTDP(),
		QueueCap:   len(reqs) + 1,
	})
	next = 0
	for f := 0; f < frames; f++ {
		for next < len(reqs) && reqs[next].Frame == f {
			resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
				Pickup:  pointJSON{X: reqs[next].Pickup.X, Y: reqs[next].Pickup.Y},
				Dropoff: pointJSON{X: reqs[next].Dropoff.X, Y: reqs[next].Dropoff.Y},
				Seats:   reqs[next].Seats,
			})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("frame %d: create status = %d", f, resp.StatusCode)
			}
			created := decode[requestOut](t, resp)
			// The controller is the daemon's sole ID allocator and must
			// reproduce the trace's sequential IDs.
			if created.ID != reqs[next].ID {
				t.Fatalf("admitted ID %d, trace ID %d", created.ID, reqs[next].ID)
			}
			next++
		}
		resp := postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tick status = %d", resp.StatusCode)
		}
	}

	ds, hs := kpiDirect.Snapshot(), srv.sim.KPISeries()
	if len(ds) != frames || len(hs) != frames {
		t.Fatalf("snapshot lengths %d/%d, want %d", len(ds), len(hs), frames)
	}
	for i := range ds {
		if quality(ds[i]) != quality(hs[i]) {
			t.Errorf("frame %d KPIs diverge:\n direct %+v\n http   %+v", i, quality(ds[i]), quality(hs[i]))
		}
	}
}

// TestConcurrentIngestionNoSilentDrop hammers the front door from many
// goroutines while the frame loop runs, then checks the zero-loss
// contract: every 201 the daemon issued reaches a terminal outcome,
// the intake queue is empty, and the in-flight ledger balances to zero.
func TestConcurrentIngestionNoSilentDrop(t *testing.T) {
	taxis, err := trace.Taxis(trace.Boston(), 40, 1)
	if err != nil {
		t.Fatalf("trace.Taxis: %v", err)
	}
	ts, srv := startServer(t, config{
		Taxis:      taxis,
		Params:     pref.Unbounded(),
		Dispatcher: dispatch.NewGreedy(),
		SpeedKmH:   60,
		QueueCap:   64,
		RetryAfter: time.Second,
	})

	// Frame loop, racing the senders like -auto does.
	stop := make(chan struct{})
	stepperDone := make(chan struct{})
	go func() {
		defer close(stepperDone)
		for {
			select {
			case <-stop:
				return
			default:
				if err := srv.step(); err != nil {
					t.Errorf("step: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	const workers, perWorker = 8, 50
	var (
		mu       sync.Mutex
		accepted []int
		shed     int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := 2 + float64((worker*perWorker+i)%16)
				resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
					Pickup:  pointJSON{X: x, Y: 10},
					Dropoff: pointJSON{X: x + 1, Y: 11},
					Seats:   1,
				})
				switch resp.StatusCode {
				case http.StatusCreated:
					out := decode[requestOut](t, resp)
					mu.Lock()
					accepted = append(accepted, out.ID)
					mu.Unlock()
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-stepperDone

	if len(accepted)+shed != workers*perWorker {
		t.Fatalf("accepted %d + shed %d != sent %d", len(accepted), shed, workers*perWorker)
	}
	if got := srv.adm.Accepted(); got != len(accepted) {
		t.Fatalf("controller accepted %d, client saw %d", got, len(accepted))
	}

	// Drive the simulation until every accepted request is terminal:
	// with unbounded acceptability every pending request is eventually
	// dispatched, and assigned rides finish their routes.
	terminal := func(id int) bool {
		resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", ts.URL, id))
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("accepted request %d: status endpoint answered %d", id, resp.StatusCode)
		}
		switch decode[requestStatusOut](t, resp).Status {
		case "completed", "abandoned", "cancelled":
			return true
		}
		return false
	}
	deadline := time.Now().Add(30 * time.Second)
	outstanding := append([]int(nil), accepted...)
	for len(outstanding) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d accepted requests never reached a terminal state (first: %d)",
				len(outstanding), outstanding[0])
		}
		if err := srv.step(); err != nil {
			t.Fatalf("drain step: %v", err)
		}
		live := outstanding[:0]
		for _, id := range outstanding {
			if !terminal(id) {
				live = append(live, id)
			}
		}
		outstanding = live
	}

	if depth := srv.adm.QueueDepth(); depth != 0 {
		t.Errorf("intake queue depth %d after drain, want 0", depth)
	}
	if inflight := srv.adm.Inflight(); inflight != 0 {
		t.Errorf("in-flight ledger %d after all terminal, want 0", inflight)
	}
}

// TestDrainShedsAndFlushes checks the SIGTERM path piecewise: draining
// sheds 503 with Retry-After, health reports it, and drainFinal pushes
// the already-admitted tail through a final frame.
func TestDrainShedsAndFlushes(t *testing.T) {
	taxis, err := trace.Taxis(trace.Boston(), 2, 1)
	if err != nil {
		t.Fatalf("trace.Taxis: %v", err)
	}
	ts, srv := startServer(t, config{
		Taxis:      taxis,
		Params:     pref.DefaultParams(),
		Dispatcher: dispatch.NewGreedy(),
	})

	resp := postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup: pointJSON{X: 10, Y: 10}, Dropoff: pointJSON{X: 11, Y: 11}, Seats: 1,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	admitted := decode[requestOut](t, resp)

	srv.adm.BeginDrain()

	resp = postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup: pointJSON{X: 10, Y: 10}, Dropoff: pointJSON{X: 11, Y: 11}, Seats: 1,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining create status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	health := decode[healthOut](t, hres)
	if health.Status != "draining" || !health.Draining {
		t.Errorf("health = %q draining=%v, want draining", health.Status, health.Draining)
	}
	if health.IntakeQueue != 1 {
		t.Errorf("intake queue %d, want the admitted request", health.IntakeQueue)
	}

	if err := srv.drainFinal(); err != nil {
		t.Fatalf("drainFinal: %v", err)
	}
	if depth := srv.adm.QueueDepth(); depth != 0 {
		t.Errorf("queue depth %d after final drain, want 0", depth)
	}
	sres, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", ts.URL, admitted.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer sres.Body.Close()
	if sres.StatusCode != http.StatusOK {
		t.Fatalf("flushed request unknown to the engine: status %d", sres.StatusCode)
	}
}

// TestQueueFullSheds429 pins the bounded-queue contract at capacity 1.
func TestQueueFullSheds429(t *testing.T) {
	taxis, err := trace.Taxis(trace.Boston(), 1, 1)
	if err != nil {
		t.Fatalf("trace.Taxis: %v", err)
	}
	ts, _ := startServer(t, config{
		Taxis:      taxis,
		Params:     pref.DefaultParams(),
		Dispatcher: dispatch.NewGreedy(),
		QueueCap:   1,
		RetryAfter: 2 * time.Second,
	})

	in := requestIn{Pickup: pointJSON{X: 10, Y: 10}, Dropoff: pointJSON{X: 11, Y: 11}, Seats: 1}
	if resp := postJSON(t, ts.URL+"/v1/requests", in); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create status = %d", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/requests", in)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}

	// A tick drains the queue; the next request is accepted again.
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
	if resp := postJSON(t, ts.URL+"/v1/requests", in); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-drain create status = %d", resp.StatusCode)
	}
}

// TestOverloadSLOFileLoads keeps ci/overload.slo parseable and bound to
// series the KPI samples actually carry.
func TestOverloadSLOFileLoads(t *testing.T) {
	eng, err := slo.Load("../../ci/overload.slo")
	if err != nil {
		t.Fatalf("slo.Load: %v", err)
	}
	st := eng.Status()
	if len(st) != 3 {
		t.Fatalf("got %d objectives, want 3", len(st))
	}
	names := map[string]bool{}
	for _, s := range st {
		names[s.Name] = true
	}
	for _, want := range []string{"shed_rate", "backlog", "pending_backlog"} {
		if !names[want] {
			t.Errorf("objective %q missing (have %v)", want, names)
		}
	}
}
