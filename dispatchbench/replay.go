package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/setpack"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
)

// countingMetric counts distance evaluations; it is safe for the cost
// plane's concurrent workers. The count is spread over cache-line-padded
// shards picked by the source point, so workers filling different
// cost-plane rows rarely touch the same counter.
type countingMetric struct {
	inner  geo.Metric
	shards [16]struct {
		n atomic.Int64
		_ [56]byte
	}
}

func (m *countingMetric) Distance(a, b geo.Point) float64 {
	m.shards[math.Float64bits(a.X)>>20%uint64(len(m.shards))].n.Add(1)
	return m.inner.Distance(a, b)
}

// calls is the number of distance evaluations so far.
func (m *countingMetric) calls() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].n.Load()
	}
	return n
}

// tracingDispatcher times the wrapped Dispatch and keeps the frame and
// the assignments it returned for the replay after the Step.
type tracingDispatcher struct {
	inner      sim.Dispatcher
	frame      *sim.Frame
	out        []fleet.Assignment
	start, end time.Time
}

func (d *tracingDispatcher) Name() string { return d.inner.Name() }

func (d *tracingDispatcher) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	d.start = time.Now()
	out, err := d.inner.Dispatch(f)
	d.end = time.Now()
	d.frame, d.out = f, out
	return out, err
}

// span is one timed call. Replayed layer calls are children of the
// Dispatch span whose frame they replay. Group is shared by the spans of
// one frame (batch: the frame number) or one request (serving: its index
// in the replay).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	Group   int    `json:"group"`
	StartNs int64  `json:"startNs"` // since the traced run began
	EndNs   int64  `json:"endNs"`
	Replay  bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(name string, parent, group int, start, end time.Time, replay bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Group: group,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
		Replay: replay,
	})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// Replayed layer calls, in the order internal/dispatch composes them.
const (
	layerIdle     = "sim.Frame.IdleTaxis"
	layerPlane    = "costplane.Build"
	layerPref     = "pref.FromPlane"
	layerGroups   = "share.FeasibleGroupsPlane"
	layerPack     = "setpack.LocalSearch"
	layerUnits    = "share.PackResult.UnitsPlane"
	layerMarket   = "share.BuildMarketPlane"
	layerGS       = "stable.PassengerOptimal"
	layerAssemble = "fleet.Assignment"
)

// maxReported bounds how many mismatching frames are described.
const maxReported = 5

// replayer re-runs each dispatched frame through the public layer calls
// and accumulates per-layer time and work counts.
type replayer struct {
	disp *tracingDispatcher
	base geo.Metric
	pack *share.PackConfig
	res  *result
	tr   tracer

	frames, dispatched int
	stepTotal          time.Duration
	dispatchTotal      time.Duration
	steps, dispatches  []float64 // ms
	busy               map[string]time.Duration
	replayTotal        time.Duration

	pending, idle, assigned      int
	cells, addressable, computed int64
	acceptable, marketCells      int64
	groups, chosenSets           int
	packedReqs, batchReqs        int
	proposals, matched, units    int
	mismatches                   int
}

func newReplayer(d *tracingDispatcher, base geo.Metric, pack *share.PackConfig, res *result) *replayer {
	return &replayer{
		disp: d, base: base, pack: pack, res: res,
		tr:   tracer{origin: time.Now()},
		busy: map[string]time.Duration{},
	}
}

// timed runs one replayed layer call under a span.
func (r *replayer) timed(name string, parent, frame int, call func() error) error {
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	r.tr.add(name, parent, frame, t0, t1, true)
	d := t1.Sub(t0)
	r.busy[name] += d
	r.replayTotal += d
	if err != nil {
		return fmt.Errorf("replay frame %d: %s: %w", frame, name, err)
	}
	return nil
}

// frame is the stepHook of the traced day.
func (r *replayer) frame(frame int, start, end time.Time) error {
	step := r.tr.add("sim.Step", 0, frame, start, end, false)
	r.frames++
	r.stepTotal += end.Sub(start)
	r.steps = append(r.steps, ms(end.Sub(start)))
	d := r.disp
	if d.frame == nil {
		return nil // nothing pending: the Step did not dispatch
	}
	f, got := d.frame, d.out
	d.frame, d.out = nil, nil
	r.dispatched++
	r.dispatchTotal += d.end.Sub(d.start)
	r.dispatches = append(r.dispatches, ms(d.end.Sub(d.start)))
	parent := r.tr.add("sim.Dispatcher.Dispatch", step, frame, d.start, d.end, false)
	for _, a := range got {
		r.assigned += len(a.Requests)
	}
	r.pending += len(f.Requests)

	want, err := r.replay(f, parent)
	if err != nil {
		return err
	}
	if !sameAssignments(want, got) {
		r.mismatches++
		r.res.failed++
		if r.mismatches <= maxReported {
			r.res.problem("frame %d: replay assigned %d taxis, the dispatcher %d, or different riders or routes",
				frame, len(want), len(got))
		}
	}
	return nil
}

// replay recomputes one frame's assignments through the public layer
// calls, mirroring internal/dispatch's NSTD-P and STD-P pipelines.
func (r *replayer) replay(f *sim.Frame, parent int) ([]fleet.Assignment, error) {
	fr := f.Number
	var taxis []fleet.Taxi
	_ = r.timed(layerIdle, parent, fr, func() error {
		taxis = idleFleet(f)
		return nil
	})
	r.idle += len(taxis)
	if len(taxis) == 0 {
		return nil, nil
	}

	nReq := len(f.Requests)
	cfg := costplane.Config{Workers: f.Workers, PruneRadius: f.Params.MaxPickup}
	batch := min(nReq, dispatch.DefaultPackBatch)
	if r.pack != nil {
		cfg.Pairs = batch >= 2
		cfg.PairRadius = r.pack.PairRadius
	}
	counter := &countingMetric{inner: r.base}
	var pl *costplane.Plane
	_ = r.timed(layerPlane, parent, fr, func() error {
		pl = costplane.Build(f.Requests, taxis, counter, cfg)
		return nil
	})
	r.cells += int64(pl.Cells())
	r.addressable += int64(pl.Cells() + nReq)
	if cfg.Pairs {
		r.addressable += int64(nReq * (nReq - 1))
	}
	r.computed += counter.calls()

	var (
		mk    *pref.Market
		units []share.Unit
	)
	if r.pack == nil {
		var inst *pref.Instance
		err := r.timed(layerPref, parent, fr, func() (err error) {
			inst, err = pref.FromPlane(pl, f.Params)
			return err
		})
		if err != nil {
			return nil, err
		}
		mk = &inst.Market
		for j := 0; j < mk.NumRequests(); j++ {
			for i := 0; i < mk.NumTaxis(); i++ {
				if mk.MutualOK(j, i) {
					r.acceptable++
				}
			}
		}
		r.marketCells += int64(mk.NumRequests() * mk.NumTaxis())
	} else {
		var groups []share.Group
		err := r.timed(layerGroups, parent, fr, func() (err error) {
			groups, err = share.FeasibleGroupsPlane(batch, pl, *r.pack)
			return err
		})
		if err != nil {
			return nil, err
		}
		problem := setpack.Problem{N: batch, Sets: make([][]int, len(groups))}
		for k, g := range groups {
			problem.Sets[k] = g.Members
		}
		var chosen []int
		_ = r.timed(layerPack, parent, fr, func() error {
			chosen = setpack.LocalSearch(problem)
			return nil
		})
		_ = r.timed(layerUnits, parent, fr, func() error {
			units = packedUnits(pl, groups, chosen, batch, nReq)
			return nil
		})
		err = r.timed(layerMarket, parent, fr, func() (err error) {
			mk, err = share.BuildMarketPlane(units, taxis, pl, f.Params)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.groups += len(groups)
		r.chosenSets += len(chosen)
		r.batchReqs += batch
		for _, k := range chosen {
			r.packedReqs += len(groups[k].Members)
		}
	}

	var m stable.Matching
	_ = r.timed(layerGS, parent, fr, func() error {
		m = stable.PassengerOptimal(mk)
		return nil
	})
	// Untimed: the proposal count through the public observer, and the
	// stability certificate of the replayed matching.
	stable.PassengerOptimalObserved(mk, &stable.Observer{
		Proposal: func(_, _, _ int, _ string) { r.proposals++ },
	})
	if err := stable.IsStable(mk, m); err != nil {
		r.res.failed++
		r.res.problem("frame %d: replayed matching is not stable: %v", fr, err)
	}
	r.matched += m.Size()
	r.units += mk.NumRequests()

	var out []fleet.Assignment
	_ = r.timed(layerAssemble, parent, fr, func() error {
		for k, i := range m.ReqPartner {
			if i == stable.Unmatched {
				continue
			}
			if r.pack == nil {
				out = append(out, fleet.SingleRide(taxis[i].ID, f.Requests[k]))
			} else {
				out = append(out, units[k].Assignment(taxis[i].ID, f.Requests))
			}
		}
		return nil
	})
	return out, nil
}

// idleFleet is the frame's idle taxis as fleet values, in fleet order.
func idleFleet(f *sim.Frame) []fleet.Taxi {
	views := f.IdleTaxis()
	taxis := make([]fleet.Taxi, len(views))
	for i, v := range views {
		taxis[i] = fleet.Taxi{ID: v.ID, Pos: v.Pos, Seats: v.Seats, Status: fleet.TaxiIdle}
	}
	return taxis
}

// packedUnits turns the chosen groups of the first batch requests into
// dispatch units, with every other request riding alone.
func packedUnits(pl *costplane.Plane, groups []share.Group, chosen []int, batch, total int) []share.Unit {
	var res share.PackResult
	packed := make([]bool, batch)
	for _, k := range chosen {
		res.Groups = append(res.Groups, groups[k])
		for _, idx := range groups[k].Members {
			packed[idx] = true
		}
	}
	for idx := 0; idx < batch; idx++ {
		if !packed[idx] {
			res.Singles = append(res.Singles, idx)
		}
	}
	units := res.UnitsPlane(pl)
	for idx := batch; idx < total; idx++ {
		units = append(units, share.SingleUnitPlane(idx, pl))
	}
	return units
}

// sameAssignments compares two frames' assignments irrespective of order.
func sameAssignments(a, b []fleet.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	byTaxi := func(xs []fleet.Assignment) []fleet.Assignment {
		out := append([]fleet.Assignment(nil), xs...)
		sort.Slice(out, func(i, j int) bool { return out[i].TaxiID < out[j].TaxiID })
		return out
	}
	return reflect.DeepEqual(byTaxi(a), byTaxi(b))
}

// metrics fills the per-layer metrics of a traced batch day. Per-frame
// layer figures are over dispatched frames (frames with pending
// requests); sim figures are over every Step.
func (r *replayer) metrics(m map[string]float64, distanceCalls int64) {
	df := float64(r.dispatched)
	perFrame := func(name string) float64 { return ratio(ms(r.busy[name]), df) }
	m["pref.from_plane_ms_per_frame"] = perFrame(layerPref)
	m["pref.acceptable_frac"] = ratio(float64(r.acceptable), float64(r.marketCells))
	m["share.groups_ms_per_frame"] = perFrame(layerGroups)
	m["share.feasible_groups_per_frame"] = ratio(float64(r.groups), df)
	m["share.market_ms_per_frame"] = perFrame(layerMarket)
	m["share.packed_frac"] = ratio(float64(r.packedReqs), float64(r.batchReqs))
	m["setpack.local_search_ms_per_frame"] = perFrame(layerPack)
	m["setpack.sets_per_frame"] = ratio(float64(r.chosenSets), df)
	m["costplane.build_ms_per_frame"] = perFrame(layerPlane)
	m["costplane.cells_per_frame"] = ratio(float64(r.cells), df)
	m["costplane.computed_frac"] = ratio(float64(r.computed), float64(r.addressable))
	m["stable.gs_ms_per_frame"] = perFrame(layerGS)
	m["stable.proposals_per_frame"] = ratio(float64(r.proposals), df)
	m["stable.matched_frac"] = ratio(float64(r.matched), float64(r.units))
	m["dispatch.ms_per_frame"] = ratio(ms(r.dispatchTotal), df)
	m["dispatch.ms_p99"] = p99(r.dispatches)
	m["dispatch.assigned_frac"] = ratio(float64(r.assigned), float64(r.pending))
	frames := float64(r.frames)
	m["sim.self_ms_per_frame"] = ratio(ms(r.stepTotal-r.dispatchTotal), frames)
	m["sim.pending_per_frame"] = ratio(float64(r.pending), frames)
	m["sim.idle_taxis_per_frame"] = ratio(float64(r.idle), df)
	m["sim.frame_ms_p50"] = median(r.steps)
	m["sim.frame_ms_p99"] = p99(r.steps)
	m["geo.distance_calls_per_frame"] = ratio(float64(distanceCalls), frames)
	m["trace.dispatch_coverage"] = ratio(float64(r.replayTotal), float64(r.dispatchTotal))
}
