package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

const (
	// serveFrame is dispatchd's -auto frame interval T: one trace minute
	// of the Boston day per T. The daemon's frame p99 stays well under T
	// (about 7 ms on one 2.1 GHz Xeon vCPU), so the ticker does not drop
	// ticks.
	serveFrame = 25 * time.Millisecond
	// serveStartMinute is the trace minute the replay starts at (6:00), so
	// a run of 20 seconds or more covers both rush hours.
	serveStartMinute = 360
	// patienceFrames matches the batch days: a request still unassigned
	// after 60 dispatch frames is withdrawn with DELETE.
	patienceFrames = 60
	// daemonStarts is how many times a run starts dispatchd, so setup_s
	// is a median; the last start serves the replay.
	daemonStarts = 9
	// healthPoll is the wait between /healthz attempts during start-up;
	// it bounds how much polling adds to a measured start.
	healthPoll = 250 * time.Microsecond
	// startTimeout bounds daemon start-up, requestTimeout one HTTP call,
	// and outcomeWait the wait for outcomes after the last POST.
	startTimeout   = 10 * time.Second
	requestTimeout = 5 * time.Second
	outcomeWait    = 10 * time.Second
)

// serveLayerMetrics are the per-layer metrics only the serving workload
// exercises.
var serveLayerMetrics = []string{
	"dispatchd.delete_ms_p50", "dispatchd.delete_ms_p99", "admission.shed_frac",
	"serve.first_frame_frac", "stream.missed_frac", "gen.late_ms_p99",
	"serve.ingest_ms_p50", "serve.ingest_ms_p99", "serve.assign_ms_p50", "serve.assign_ms_p99",
}

// batchLayerMetrics are the per-layer metrics only the traced batch days
// measure; the serving workload reaches these layers inside dispatchd,
// where the benchmark does not time them.
var batchLayerMetrics = []string{
	"pref.from_plane_ms_per_frame", "pref.acceptable_frac",
	"share.groups_ms_per_frame", "share.feasible_groups_per_frame", "share.market_ms_per_frame", "share.packed_frac",
	"setpack.local_search_ms_per_frame", "setpack.sets_per_frame",
	"costplane.build_ms_per_frame", "costplane.cells_per_frame", "costplane.computed_frac",
	"stable.gs_ms_per_frame", "stable.proposals_per_frame", "stable.matched_frac",
	"dispatch.ms_per_frame", "dispatch.ms_p99", "dispatch.assigned_frac",
	"sim.self_ms_per_frame", "sim.pending_per_frame", "sim.idle_taxis_per_frame",
	"geo.distance_calls_per_frame", "trace.dispatch_coverage", "trace.overhead_s", "sim.day_wall_s",
}

// planned is one request of the replay and when it is due, as an offset
// from the replay's start.
type planned struct {
	req fleet.Request
	due time.Duration
}

// replayMinutes is how many trace minutes a run of the given length
// replays.
func replayMinutes(seconds time.Duration) int {
	return min(int(seconds/serveFrame), 1440-serveStartMinute)
}

// schedule lays the Boston trace out on the wall clock: minute m of the
// window is due in [m·T, (m+1)·T), at a seeded uniform offset. The window
// starts at serveStartMinute and spans minutes trace minutes.
func schedule(reqs []fleet.Request, seed int64, minutes int) []planned {
	rng := rand.New(rand.NewSource(seed))
	var out []planned
	for _, r := range reqs {
		m := r.Frame - serveStartMinute
		if m < 0 || m >= minutes {
			continue
		}
		due := time.Duration(m)*serveFrame + time.Duration(rng.Int63n(int64(serveFrame)))
		out = append(out, planned{req: r, due: due})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// daemon is one dispatchd process on loopback with its two connections:
// api (one keep-alive connection for POST, DELETE and reads) and the
// /v1/stream subscription.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error
	base   string
	api    *http.Client
	watch  *watcher
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon runs dispatchd with its default flags plus -quiet, -algo
// nstd-p and the fixed -auto interval on one Go processor, waits for
// /healthz and subscribes to the events and kpi topics.
func startDaemon(bin string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "dispatchd"),
		"-addr", addr, "-quiet", "-algo", "nstd-p", "-auto", serveFrame.String())
	// One Go processor, as in the batch days: the client keeps the other
	// vCPU, and dispatchd's CPU time holds no scheduler spinning or
	// idle-time garbage-collection work, which vary with timing.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan error, 1),
		base:   "http://" + addr,
		api: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
	go func() { d.exited <- cmd.Wait() }()
	if err := d.awaitHealthy(); err != nil {
		d.stop()
		return nil, err
	}
	w, err := subscribe(d.base)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.watch = w
	return d, nil
}

func (d *daemon) awaitHealthy() error {
	deadline := time.Now().Add(startTimeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("dispatchd exited during start-up: %v", err)
		default:
		}
		resp, err := d.api.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(healthPoll)
	}
	return fmt.Errorf("dispatchd not healthy after %v", startTimeout)
}

// stop closes the subscription, asks dispatchd to drain with SIGTERM and
// waits for it to exit, killing it if it does not.
func (d *daemon) stop() {
	if d.watch != nil {
		d.watch.close()
	}
	d.api.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(startTimeout):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// outcome is what the stream told about one admitted request, keyed by
// the daemon's request ID.
type outcome struct {
	requestFrame int // frame the request entered the pending queue; -1 until seen
	assignFrame  int
	assignAt     time.Time
	assigns      int
}

// frameSample is one frame's FrameNs in ms, stamped with its arrival.
type frameSample struct {
	at time.Time
	ms float64
}

// watcher reads the /v1/stream subscription: lifecycle events and one KPI
// sample per frame. On each frame it queues DELETEs for requests that
// have waited patienceFrames dispatch frames without an assignment.
type watcher struct {
	body   io.ReadCloser
	done   chan struct{}
	notify chan struct{} // signalled when deletes are queued

	mu      sync.Mutex
	byID    map[int]*outcome
	waiting []int // admitted IDs in admission order, not yet assigned or withdrawn
	deletes []int // IDs due for DELETE
	frames  []frameSample
	readErr error
}

func subscribe(base string) (*watcher, error) {
	// ResponseHeaderTimeout bounds the connect; a client timeout would
	// also cut the body, which stays open for the whole run.
	cl := &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: startTimeout}}
	resp, err := cl.Get(base + "/v1/stream?topics=events,kpi")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("stream subscribe: %s", resp.Status)
	}
	w := &watcher{
		body:   resp.Body,
		done:   make(chan struct{}),
		notify: make(chan struct{}, 1),
		byID:   map[int]*outcome{},
	}
	r := stream.NewReader(resp.Body)
	// The snapshot arrives first; reading it completes the subscription.
	if _, err := r.ReadEvent(); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("stream snapshot: %w", err)
	}
	go w.read(r)
	return w, nil
}

func (w *watcher) close() {
	w.body.Close()
	<-w.done
}

func (w *watcher) get(id int) *outcome {
	o := w.byID[id]
	if o == nil {
		o = &outcome{requestFrame: -1, assignFrame: -1}
		w.byID[id] = o
	}
	return o
}

func (w *watcher) read(r *stream.Reader) {
	defer close(w.done)
	for {
		ev, err := r.ReadEvent()
		if err != nil {
			w.mu.Lock()
			w.readErr = err
			w.mu.Unlock()
			return
		}
		now := time.Now()
		switch ev.Name {
		case "events":
			var e struct {
				Frame     int    `json:"frame"`
				Kind      string `json:"kind"`
				RequestID int    `json:"requestId"`
			}
			if json.Unmarshal(ev.Data, &e) != nil || e.RequestID < 0 {
				continue
			}
			w.mu.Lock()
			o := w.get(e.RequestID)
			switch e.Kind {
			case "request":
				o.requestFrame = e.Frame
			case "assign":
				o.assigns++
				o.assignFrame = e.Frame
				o.assignAt = now
			}
			w.mu.Unlock()
		case "kpi":
			var s tseries.Sample
			if json.Unmarshal(ev.Data, &s) != nil {
				continue
			}
			w.mu.Lock()
			w.frames = append(w.frames, frameSample{at: now, ms: float64(s.FrameNs) / 1e6})
			w.expire(int(s.Frame))
			w.mu.Unlock()
		}
	}
}

// expire runs after the KPI sample of frame: every lifecycle event of that
// frame has been read, so a waiting request with no assign event after
// patienceFrames dispatch frames is due for withdrawal. Callers hold mu.
func (w *watcher) expire(frame int) {
	queued := false
	for len(w.waiting) > 0 {
		o := w.byID[w.waiting[0]]
		if o.assigns > 0 {
			w.waiting = w.waiting[1:]
			continue
		}
		if o.requestFrame < 0 || frame < o.requestFrame+patienceFrames-1 {
			break
		}
		w.deletes = append(w.deletes, w.waiting[0])
		w.waiting = w.waiting[1:]
		queued = true
	}
	if queued {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}

// admitted registers a 201 so the watcher tracks the request's patience.
func (w *watcher) admitted(id int) {
	w.mu.Lock()
	w.get(id)
	w.waiting = append(w.waiting, id)
	w.mu.Unlock()
}

func (w *watcher) takeDeletes() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.deletes
	w.deletes = nil
	return out
}

// sent is the client's record of one planned request.
type sent struct {
	id       int // daemon ID; -1 unless admitted
	frame    int // frame named in the 201
	status   int // HTTP status; 0 on a transport error or timeout
	sendAt   time.Time
	ackAt    time.Time
	deleted  int // DELETE status, 0 if never withdrawn
	deleteAt time.Time
}

// replay is the open-loop client state of one run.
type replay struct {
	d       *daemon
	plan    []planned
	base    time.Time
	sent    []sent
	byID    map[int]int // daemon ID → index into sent
	delDur  []float64   // DELETE round trips, ms
	delFail int
	// posted is when the last POST returned; cpu is dispatchd's CPU time
	// used between the start of the replay and then.
	posted time.Time
	cpu    time.Duration
	// cal holds the reference calls made while posting, one whenever
	// refEvery has passed and the next POST is at least refSlack away;
	// rss samples dispatchd's resident set size at the same points.
	cal     *calibrator
	rss     *rssMean
	lastRef time.Time
}

// refSlack is the least time to the next due POST for a reference call to
// be made; one call takes about refNominal.
const refSlack = 5 * refNominal

// calibrate makes a reference call and samples dispatchd's resident set
// size if they are due and fit before due.
func (rp *replay) calibrate(due time.Time) {
	now := time.Now()
	if now.Sub(rp.lastRef) < refEvery || due.Sub(now) < refSlack {
		return
	}
	rp.cal.sample()
	rp.rss.sample()
	rp.lastRef = now
}

func (rp *replay) post(i int) {
	r := rp.plan[i].req
	body := fmt.Appendf(nil, `{"pickup":{"x":%s,"y":%s},"dropoff":{"x":%s,"y":%s},"seats":%d}`,
		f64(r.Pickup.X), f64(r.Pickup.Y), f64(r.Dropoff.X), f64(r.Dropoff.Y), r.Seats)
	s := &rp.sent[i]
	s.id = -1
	s.sendAt = time.Now()
	resp, err := rp.d.api.Post(rp.d.base+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.ackAt = time.Now()
	if err != nil {
		return
	}
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusCreated {
		return
	}
	var out struct {
		ID    int `json:"id"`
		Frame int `json:"frame"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		s.status = 0
		return
	}
	s.id, s.frame = out.ID, out.Frame
	rp.byID[out.ID] = i
	rp.d.watch.admitted(out.ID)
}

func f64(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// withdraw DELETEs every request the watcher has queued.
func (rp *replay) withdraw() {
	for _, id := range rp.d.watch.takeDeletes() {
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodDelete, rp.d.base+"/v1/requests/"+strconv.Itoa(id), nil)
		if err != nil {
			rp.delFail++
			continue
		}
		resp, err := rp.d.api.Do(req)
		if err != nil {
			rp.delFail++
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		rp.delDur = append(rp.delDur, ms(t1.Sub(t0)))
		s := &rp.sent[rp.byID[id]]
		s.deleted, s.deleteAt = resp.StatusCode, t1
		// 409: already riding, so the request was assigned after all.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
			rp.delFail++
		}
	}
}

// run posts every planned request at its due time over the one API
// connection, withdrawing impatient requests in between, then keeps
// withdrawing until every admitted request has an outcome or outcomeWait
// passes.
func (rp *replay) run() error {
	cpu0, err := procCPU(rp.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := range rp.plan {
		due := rp.base.Add(rp.plan[i].due)
		for {
			rp.withdraw()
			rp.calibrate(due)
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-rp.d.watch.notify:
				if !timer.Stop() {
					<-timer.C
				}
			}
		}
		rp.post(i)
	}
	rp.posted = time.Now()
	cpu1, err := procCPU(rp.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rp.cpu = cpu1 - cpu0
	deadline := time.Now().Add(outcomeWait)
	for time.Now().Before(deadline) && rp.unresolved() > 0 {
		rp.withdraw()
		timer.Reset(serveFrame)
		select {
		case <-timer.C:
		case <-rp.d.watch.notify:
			if !timer.Stop() {
				<-timer.C
			}
		}
	}
	rp.withdraw()
	return nil
}

// unresolved counts admitted requests with neither an assign event nor a
// DELETE answer.
func (rp *replay) unresolved() int {
	w := rp.d.watch
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, s := range rp.sent {
		if s.id >= 0 && s.deleted == 0 && w.byID[s.id].assigns == 0 {
			n++
		}
	}
	return n
}

// status reads one request's lifecycle status word over the API
// connection.
func (d *daemon) status(id int) (string, error) {
	resp, err := d.api.Get(d.base + "/v1/requests/" + strconv.Itoa(id))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status of request %d: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.Status, nil
}

// serveReport is the part of GET /v1/report the benchmark reads.
type serveReport struct {
	Requests          int     `json:"requests"`
	Served            int     `json:"served"`
	MeanDelayMinutes  float64 `json:"meanDelayMinutes"`
	MeanPassengerDiss float64 `json:"meanPassengerDissKm"`
	MeanTaxiDiss      float64 `json:"meanTaxiDissKm"`
}

func (d *daemon) report() (*serveReport, error) {
	resp, err := d.api.Get(d.base + "/v1/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report: %s", resp.Status)
	}
	var rep serveReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return &rep, nil
}

// runServe is the serving open loop against dispatchd on loopback.
func runServe(opts options) (*result, error) {
	t0 := time.Now()
	reqs, err := trace.Generate(trace.BostonConfig(1440, opts.seed))
	if err != nil {
		return nil, err
	}
	generate := time.Since(t0)
	minutes := replayMinutes(opts.seconds)
	plan := schedule(reqs, opts.seed, minutes)
	if len(plan) == 0 {
		return nil, errors.New("empty replay window")
	}

	// Start-up is mostly CPU work (exec, runtime and dispatchd
	// initialisation), so it is rescaled like the CPU figures, by
	// reference calls made before each start.
	var (
		d        *daemon
		setups   []float64
		setupCal = newCalibrator()
	)
	for i := 0; i < daemonStarts; i++ {
		setupCal.sample()
		t := time.Now()
		d, err = startDaemon(opts.bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < daemonStarts-1 {
			d.stop()
		}
	}
	defer d.stop()
	for i := range setups {
		setups[i] *= setupCal.scale()
	}

	rp := &replay{
		d: d, plan: plan, sent: make([]sent, len(plan)), byID: map[int]int{},
		// A short lead lets the first due time be met on schedule.
		base: time.Now().Add(50 * time.Millisecond),
		cal:  newCalibrator(),
		rss:  &rssMean{pid: d.cmd.Process.Pid},
	}
	rp.cal.sample()
	rp.rss.sample()
	rp.lastRef = time.Now()
	if err := rp.run(); err != nil {
		return nil, err
	}
	return rp.finish(opts, generate, setups, minutes)
}

// finish sweeps for outcomes the stream did not deliver, checks that every
// admitted request reached exactly one terminal state, and computes the
// metrics. Time-series figures cover the posting phase, the minutes trace
// minutes from the replay's start to the last POST.
func (rp *replay) finish(opts options, generate time.Duration, setups []float64, minutes int) (*result, error) {
	d := rp.d
	res := &result{metrics: map[string]float64{}, attempted: len(rp.plan)}
	var (
		ingest, assign, late []float64
		accepted, shed       int
		missed, firstFrame   int
		assignedFinal        int
	)
	w := d.watch
	for i := range rp.sent {
		s := &rp.sent[i]
		due := rp.base.Add(rp.plan[i].due)
		late = append(late, ms(s.sendAt.Sub(due)))
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
			shed++
		}
		if s.id < 0 {
			res.failed++
			continue
		}
		accepted++
		ingest = append(ingest, ms(s.ackAt.Sub(due)))
		w.mu.Lock()
		o := *w.byID[s.id]
		w.mu.Unlock()
		if o.assigns > 1 {
			res.problem("request %d assigned %d times", s.id, o.assigns)
		}
		switch {
		case s.deleted == http.StatusOK:
		case o.assigns > 0:
			assignedFinal++
			assign = append(assign, ms(o.assignAt.Sub(due)))
			if o.assignFrame == s.frame {
				firstFrame++
			}
		default:
			// No outcome on the stream: recover it from the final status
			// sweep, or count the request as outcome-less.
			st, err := d.status(s.id)
			switch {
			case err != nil:
				res.failed++
				res.problem("request %d: %v", s.id, err)
			case st == "assigned" || st == "riding" || st == "completed":
				missed++
				assignedFinal++
			case st == "cancelled":
				missed++
			default:
				res.failed++
				res.problem("request %d still %s after the outcome wait", s.id, st)
			}
		}
	}
	res.failed += rp.delFail

	rep, err := d.report()
	if err != nil {
		return nil, err
	}
	if rep.Requests != accepted {
		res.problem("daemon holds %d requests, %d were admitted", rep.Requests, accepted)
	}
	if rep.Served != assignedFinal {
		res.problem("daemon reports %d served, the stream and status sweep %d", rep.Served, assignedFinal)
	}
	w.mu.Lock()
	var frames []float64
	for _, f := range w.frames {
		if !f.at.Before(rp.base) && !f.at.After(rp.posted) {
			frames = append(frames, f.ms)
		}
	}
	readErr := w.readErr
	w.mu.Unlock()
	if readErr != nil {
		return nil, fmt.Errorf("stream ended early: %w", readErr)
	}

	m := res.metrics
	m["setup_s"] = median(setups)
	m["sim.day_cpu_s"] = rp.cpu.Seconds() * 1440 / float64(minutes)
	m["norm_cpu_s_per_day"] = m["sim.day_cpu_s"] * rp.cal.scale()
	if m["mem_mean_mb"], err = rp.rss.mean(); err != nil {
		return nil, err
	}
	m["served_frac"] = ratio(float64(rep.Served), float64(rep.Requests))
	m["kpi.delay_mean_min"] = rep.MeanDelayMinutes
	m["pass_diss_km"] = rep.MeanPassengerDiss
	m["taxi_gain_km"] = -rep.MeanTaxiDiss

	m["dispatchd.delete_ms_p50"], m["dispatchd.delete_ms_p99"] = 0, 0
	if len(rp.delDur) > 0 {
		m["dispatchd.delete_ms_p50"], m["dispatchd.delete_ms_p99"] = median(rp.delDur), p99(rp.delDur)
	}
	m["admission.shed_frac"] = ratio(float64(shed), float64(len(rp.plan)))
	m["sim.frame_ms_p50"], m["sim.frame_ms_p99"] = median(frames), p99(frames)
	m["serve.ingest_ms_p50"], m["serve.ingest_ms_p99"] = median(ingest), p99(ingest)
	m["serve.assign_ms_p50"], m["serve.assign_ms_p99"] = median(assign), p99(assign)
	m["serve.first_frame_frac"] = ratio(float64(firstFrame), float64(accepted))
	m["stream.missed_frac"] = ratio(float64(missed), float64(accepted))
	m["gen.late_ms_p99"] = p99(late)
	m["trace.generate_s"] = generate.Seconds()
	zero(m, batchLayerMetrics...)

	if opts.traced {
		path := filepath.Join(opts.bin, "spans", fmt.Sprintf("boston-serve-nstdp-seed%d.jsonl", opts.seed))
		if err := rp.spans().write(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spans records each request's life on the client's clock: the request
// span from due time to outcome, with the POST and the wait for the
// assign event (or the DELETE) as children. The group is the request's
// index in the replay.
func (rp *replay) spans() *tracer {
	tr := &tracer{origin: rp.base}
	w := rp.d.watch
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, s := range rp.sent {
		due := rp.base.Add(rp.plan[i].due)
		end := s.ackAt
		var o outcome
		if s.id >= 0 {
			o = *w.byID[s.id]
		}
		switch {
		case s.deleted != 0:
			end = s.deleteAt
		case o.assigns > 0:
			end = o.assignAt
		}
		root := tr.add("serve.request", 0, i, due, end, false)
		tr.add("http.post", root, i, s.sendAt, s.ackAt, false)
		switch {
		case s.deleted != 0:
			tr.add("dispatchd.delete", root, i, s.ackAt, s.deleteAt, false)
		case o.assigns > 0:
			tr.add("wait.assign", root, i, s.ackAt, o.assignAt, false)
		}
	}
	return tr
}
