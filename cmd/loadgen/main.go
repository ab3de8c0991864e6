// Command loadgen replays a synthetic passenger trace against a live
// dispatchd over HTTP, at a configurable multiple of the calibrated
// demand, and reports what the front door did with it: sustained QPS,
// shed rate, and request→assignment latency quantiles.
//
//	dispatchd -auto 100ms &
//	loadgen -addr http://localhost:8080 -city boston -frames 30 -mult 10
//
// Each generated request is POSTed in trace order with a per-request
// timeout; 429/503 responses are retried with exponential backoff and
// jitter, honouring the server's Retry-After hint. Accepted requests
// are watched through a single GET /v1/stream subscription to the
// lifecycle event topic (falling back to per-request polling of
// GET /v1/requests/{id} when the stream is unavailable) until they are
// assigned or reach a terminal state. The end-of-run JSON report (schema
// "loadgen/v1") is written to -out (stdout by default), and the
// -max-shed-rate / -min-assigned gates turn the report into a CI
// verdict: the process exits nonzero when a gate fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://localhost:8080", "dispatchd base URL")
		cityName   = fs.String("city", "boston", "city model: boston or newyork")
		frames     = fs.Int("frames", 30, "trace horizon in frames (minutes)")
		volume     = fs.Int("volume", 0, "daily request volume before scaling (0 = the city's calibrated volume)")
		mult       = fs.Float64("mult", 1, "demand multiplier: scales the daily volume to model overload")
		seed       = fs.Int64("seed", 42, "trace generation seed")
		seats      = fs.Int("seats", 3, "max party size (1..6; parties decay geometrically)")
		frameEvery = fs.Duration("frame-interval", 100*time.Millisecond, "wall-clock pacing per trace frame")
		timeout    = fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
		retries    = fs.Int("retries", 3, "max retries per shed (429/503) response")
		backoff    = fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, jittered, floored by Retry-After)")
		conc       = fs.Int("concurrency", 64, "max concurrent in-flight POSTs")
		poll       = fs.Duration("poll", 200*time.Millisecond, "outcome poll sweep interval (fallback mode)")
		useStream  = fs.Bool("stream", true, "watch outcomes via one /v1/stream subscription instead of polling")
		drain      = fs.Duration("drain", 30*time.Second, "max wait for outstanding outcomes after the last send")
		out        = fs.String("out", "", "report JSON path (empty = stdout)")
		maxShed    = fs.Float64("max-shed-rate", 1, "gate: fail when shed/(shed+accepted) exceeds this fraction")
		minAssign  = fs.Int("min-assigned", 0, "gate: fail when fewer requests reach assignment")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	city, err := trace.CityByName(*cityName)
	if err != nil {
		return err
	}
	daily := *volume
	if daily <= 0 {
		daily = city.RequestsPerDay
	}
	scaled := int(float64(daily) * *mult)
	if scaled <= 0 {
		return fmt.Errorf("scaled volume %d is not positive (volume=%d mult=%g)", scaled, daily, *mult)
	}
	reqs, err := trace.Generate(trace.Config{
		City:           city,
		Frames:         *frames,
		RequestsPerDay: scaled,
		Seats:          *seats,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	if *conc <= 0 {
		*conc = 1
	}

	cl := newClient(*addr, *timeout, *retries, *backoff)
	cfg := replayConfig{
		FrameInterval: *frameEvery,
		Concurrency:   *conc,
		Poll:          *poll,
		Drain:         *drain,
		Seed:          *seed,
	}
	source := "poll"
	if *useStream {
		if w, werr := newStreamWatcher(*addr, *timeout); werr != nil {
			fmt.Fprintf(os.Stderr, "loadgen: stream watch unavailable (%v); falling back to polling\n", werr)
		} else {
			defer w.Close()
			cfg.Stream = w.events
			source = "stream"
		}
	}
	rep := replay(cl, reqs, cfg)
	rep.OutcomeSource = source
	rep.City = city.Name
	rep.Frames = *frames
	rep.Multiplier = *mult
	rep.DailyVolume = scaled

	if err := rep.write(*out, stdout); err != nil {
		return err
	}
	return rep.gate(*maxShed, *minAssign)
}

// replayConfig carries the pacing and watching knobs of one replay run.
type replayConfig struct {
	FrameInterval time.Duration
	Concurrency   int
	Poll          time.Duration
	Drain         time.Duration
	Seed          int64
	// Stream, when non-nil, feeds lifecycle outcomes from a
	// /v1/stream subscription; the collector only falls back to
	// polling if it closes mid-run.
	Stream <-chan outcomeEvent
}

// replay drives the request trace through the client: a pacer releases
// each frame's burst on the frame interval, a worker pool POSTs with
// bounded concurrency, and a collector sweeps accepted IDs until they
// are assigned or terminal (or the drain deadline passes).
func replay(cl *client, reqs []fleet.Request, cfg replayConfig) *report {
	var (
		agg     aggregate
		work    = make(chan fleet.Request)
		watched = make(chan watch, 4096)
		wgSend  sync.WaitGroup
		wgWatch sync.WaitGroup
	)
	start := time.Now()

	collector := &collector{cl: cl, poll: cfg.Poll, drain: cfg.Drain, agg: &agg, stream: cfg.Stream}
	wgWatch.Add(1)
	go func() {
		defer wgWatch.Done()
		collector.run(watched)
	}()

	for w := 0; w < cfg.Concurrency; w++ {
		wgSend.Add(1)
		go func(worker int) {
			defer wgSend.Done()
			jit := newJitter(cfg.Seed + int64(worker))
			for r := range work {
				res := cl.send(r, jit)
				agg.note(res)
				if res.accepted {
					watched <- watch{id: res.id, sentAt: res.sentAt}
				}
			}
		}(w)
	}

	// Pacer: requests are frame-stamped by the generator; release each
	// frame's burst, then sleep the frame interval.
	frame := 0
	for _, r := range reqs {
		for frame < r.Frame {
			time.Sleep(cfg.FrameInterval)
			frame++
		}
		work <- r
	}
	close(work)
	wgSend.Wait()
	close(watched)
	wgWatch.Wait()

	rep := agg.report(time.Since(start))
	rep.Sent = len(reqs)
	return rep
}

// watch is one accepted request awaiting an outcome.
type watch struct {
	id     int
	sentAt time.Time
}

// collector resolves outstanding accepted requests to outcomes. With a
// stream it is event-driven: one SSE subscription pushes assignments as
// they happen, so no per-ID polling at all. Without one — or after the
// stream dies mid-run — it falls back to sweeping GET /v1/requests/{id}
// on the poll interval. Once the input channel closes (all sends
// finished) it keeps collecting until the drain window runs out, with
// one final poll sweep to cover any events the daemon's ring dropped.
type collector struct {
	cl     *client
	poll   time.Duration
	drain  time.Duration
	agg    *aggregate
	stream <-chan outcomeEvent
}

func (c *collector) run(in <-chan watch) {
	outstanding := map[int]time.Time{}
	// Stream outcomes can race ahead of the worker's intake: the
	// daemon may assign (and stream the event for) an ID before the
	// POSTing goroutine registers it here. Park those and claim them
	// when the watch arrives.
	early := map[int]bool{}
	done := map[int]struct{}{}
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	var drainC <-chan time.Time
	for {
		if in == nil && len(outstanding) == 0 {
			return
		}
		select {
		case w, ok := <-in:
			if !ok {
				in = nil
				t := time.NewTimer(c.drain)
				defer t.Stop()
				drainC = t.C
				continue
			}
			if assigned, seen := early[w.id]; seen {
				delete(early, w.id)
				done[w.id] = struct{}{}
				c.resolve(assigned, w.sentAt)
				continue
			}
			outstanding[w.id] = w.sentAt
		case ev, ok := <-c.stream:
			if !ok {
				// Stream died mid-run: a nil channel never
				// selects, and the ticker sweeps take over.
				c.stream = nil
				continue
			}
			if _, dup := done[ev.id]; dup {
				continue // pickup/dropoff after the resolving assign
			}
			if sentAt, seen := outstanding[ev.id]; seen {
				delete(outstanding, ev.id)
				done[ev.id] = struct{}{}
				c.resolve(ev.assigned, sentAt)
			} else if _, seen := early[ev.id]; !seen {
				early[ev.id] = ev.assigned
			}
		case <-ticker.C:
			if c.stream == nil {
				c.sweep(outstanding)
			}
		case <-drainC:
			// The daemon's ring may have dropped events under
			// burst; one last sweep before declaring timeouts.
			c.sweep(outstanding)
			c.agg.noteTimedOut(len(outstanding))
			return
		}
	}
}

func (c *collector) resolve(assigned bool, sentAt time.Time) {
	if assigned {
		c.agg.noteAssigned(time.Since(sentAt))
	} else {
		c.agg.noteLost()
	}
}

// sweep is the polling path: one status GET per outstanding ID.
func (c *collector) sweep(outstanding map[int]time.Time) {
	for id, sentAt := range outstanding {
		st, err := c.cl.status(id)
		if err != nil {
			continue // transient read failure: keep the ID for the next sweep
		}
		switch st {
		case "assigned", "riding", "completed":
			c.agg.noteAssigned(time.Since(sentAt))
			delete(outstanding, id)
		case "cancelled", "abandoned":
			c.agg.noteLost()
			delete(outstanding, id)
		}
	}
}

// aggregate is the thread-safe run tally the report is built from.
type aggregate struct {
	mu         sync.Mutex
	accepted   int
	shed       int
	drainShed  int
	errors     int
	retries    int
	assigned   int
	lost       int
	timedOut   int
	latencies  []float64 // seconds, enqueue → observed assignment
	admitWaits []float64 // seconds, first POST attempt → accepted
}

func (a *aggregate) note(r sendResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.retries += r.retries
	switch {
	case r.accepted:
		a.accepted++
		a.admitWaits = append(a.admitWaits, r.admitWait.Seconds())
	case r.shed && r.draining:
		a.drainShed++
	case r.shed:
		a.shed++
	default:
		a.errors++
	}
}

func (a *aggregate) noteAssigned(d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.assigned++
	a.latencies = append(a.latencies, d.Seconds())
}

func (a *aggregate) noteLost() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lost++
}

func (a *aggregate) noteTimedOut(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.timedOut += n
}

func (a *aggregate) report(elapsed time.Duration) *report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &report{
		Schema:          "loadgen/v1",
		DurationSeconds: elapsed.Seconds(),
		Accepted:        a.accepted,
		Shed:            a.shed,
		DrainShed:       a.drainShed,
		Errors:          a.errors,
		Retries:         a.retries,
		Assigned:        a.assigned,
		Lost:            a.lost,
		TimedOut:        a.timedOut,
	}
	if elapsed > 0 {
		rep.SustainedQPS = float64(a.accepted) / elapsed.Seconds()
	}
	if total := a.accepted + a.shed; total > 0 {
		rep.ShedRate = float64(a.shed) / float64(total)
	}
	if len(a.latencies) > 0 {
		lat := append([]float64(nil), a.latencies...)
		sort.Float64s(lat)
		rep.Latency = &latencyOut{
			P50Seconds: quantile(lat, 0.50),
			P95Seconds: quantile(lat, 0.95),
			P99Seconds: quantile(lat, 0.99),
		}
	}
	if len(a.admitWaits) > 0 {
		aw := append([]float64(nil), a.admitWaits...)
		sort.Float64s(aw)
		rep.AdmitWait = &latencyOut{
			P50Seconds: quantile(aw, 0.50),
			P95Seconds: quantile(aw, 0.95),
			P99Seconds: quantile(aw, 0.99),
		}
	}
	return rep
}

// quantile reads the q-quantile from an ascending-sorted sample set.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
