package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// degradingDispatcher notes every frame as degraded, then dispatches
// like nearestDispatcher.
type degradingDispatcher struct{}

func (degradingDispatcher) Name() string { return "degrading" }

func (degradingDispatcher) Dispatch(f *Frame) ([]fleet.Assignment, error) {
	f.NoteDegraded("deadline", "primary missed its deadline")
	return nearestDispatcher{}.Dispatch(f)
}

// watchedRun runs a three-request trace with a KPI ring, a flight
// recorder, and a hub subscribed to every topic.
func watchedRun(t *testing.T, d Dispatcher, eng *slo.Engine) (*tseries.Recorder, string, []stream.Msg) {
	t.Helper()
	dir := t.TempDir()
	rec, err := flightrec.New(flightrec.Config{Dir: dir, CooldownFrames: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hub := stream.NewHub()
	sub := hub.Subscribe(4096)
	defer sub.Close()
	kpi := tseries.New(tseries.Config{Capacity: 64})
	cfg := simpleConfig(d)
	cfg.KPI, cfg.SLO, cfg.Recorder, cfg.Hub = kpi, eng, rec, hub
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 3}, Dropoff: geo.Point{X: 4}, Frame: 1},
		{ID: 3, Pickup: geo.Point{X: 5}, Dropoff: geo.Point{X: 9}, Frame: 2},
	}
	s, err := New(cfg, []fleet.Taxi{{ID: 0}, {ID: 7, Pos: geo.Point{X: 3}}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return kpi, dir, sub.TakeBatch(nil)
}

// onlyBundle reads the manifest of the single bundle under dir.
func onlyBundle(t *testing.T, dir string) flightrec.Manifest {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("bundle dirs = %v, want exactly 1", entries)
	}
	m, err := flightrec.ReadManifest(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func topicCount(msgs []stream.Msg, topic stream.Topic) int {
	n := 0
	for _, m := range msgs {
		if m.Topic == topic {
			n++
		}
	}
	return n
}

// TestSLOBreachForwarded checks the simulator forwards the SLO engine's
// breach to its recorder (one bundle carrying the SLO section) and its
// transitions to its hub.
func TestSLOBreachForwarded(t *testing.T) {
	eng, err := slo.New([]slo.Def{{Name: "idle", Series: "served", Op: slo.OpEQ, FastWindow: 1, SlowWindow: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, dir, msgs := watchedRun(t, nearestDispatcher{}, eng)
	m := onlyBundle(t, dir)
	if m.Trigger.Reason != flightrec.ReasonSLOBreach || !strings.Contains(m.Trigger.Detail, "idle: served == 0") {
		t.Errorf("trigger = %+v, want an slo_breach naming the objective", m.Trigger)
	}
	if m.Sections["slo"] == nil {
		t.Error("manifest lacks the slo status section")
	}
	if topicCount(msgs, stream.TopicSLO) == 0 {
		t.Error("no slo transition reached the hub")
	}
	if topicCount(msgs, stream.TopicKPI) == 0 || topicCount(msgs, stream.TopicEvents) == 0 {
		t.Error("kpi or events topic silent")
	}
}

// TestNoteDegradedForwarded checks a dispatcher's degrade note is
// counted in this simulator's KPI, fires its recorder, and reaches its
// hub as a notice.
func TestNoteDegradedForwarded(t *testing.T) {
	kpi, dir, msgs := watchedRun(t, degradingDispatcher{}, nil)
	samples := kpi.Snapshot()
	if last := samples[len(samples)-1]; last.DegradedFrames != 3 {
		t.Errorf("DegradedFrames = %d, want 3 (one per dispatched frame)", last.DegradedFrames)
	}
	if m := onlyBundle(t, dir); m.Trigger.Reason != flightrec.ReasonDegraded {
		t.Errorf("trigger reason = %q, want degraded_frame", m.Trigger.Reason)
	}
	if got := topicCount(msgs, stream.TopicNotices); got != 3 {
		t.Errorf("notices = %d, want 3 degrade notices", got)
	}
}

// TestNoteDegradedNotesTracedFrame checks a degrade lands on a traced
// frame's certificate as one note carrying the dispatcher's detail.
func TestNoteDegradedNotesTracedFrame(t *testing.T) {
	rec := dtrace.New(0)
	f := &Frame{Number: 4, Tracer: rec}
	f.NoteDegraded("deadline", "primary missed its deadline")
	rec.PutCertificate(dtrace.Trivial(4, 0, 0, ""))
	c, _ := rec.Certificate(4)
	if want := []string{"degraded dispatch: primary missed its deadline"}; !reflect.DeepEqual(c.Notes, want) {
		t.Errorf("frame notes = %q, want %q", c.Notes, want)
	}
}

// farthestDispatcher hands each request the farthest idle taxi, so the
// request and a nearer idle taxi form a blocking pair.
type farthestDispatcher struct{}

func (farthestDispatcher) Name() string { return "farthest" }

func (farthestDispatcher) Dispatch(f *Frame) ([]fleet.Assignment, error) {
	var out []fleet.Assignment
	used := make(map[int]bool)
	for _, r := range f.Requests {
		best, bestDist := -1, -1.0
		for i, v := range f.Taxis {
			if d := f.Metric.Distance(v.Pos, r.Pickup); v.Idle && !used[i] && d > bestDist {
				best, bestDist = i, d
			}
		}
		if best >= 0 {
			used[best] = true
			out = append(out, fleet.SingleRide(f.Taxis[best].ID, r))
		}
	}
	return out, nil
}

// bundledSim builds a simulator over two taxis and three requests with
// IDs from base+1, recording into its own flight recorder with the
// given cooldown in frames.
func bundledSim(t *testing.T, cfg Config, base, cooldown int) (*Simulator, string) {
	t.Helper()
	dir := t.TempDir()
	rec, err := flightrec.New(flightrec.Config{Dir: dir, CooldownFrames: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = rec
	reqs := []fleet.Request{
		{ID: base + 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: base + 2, Pickup: geo.Point{X: 3}, Dropoff: geo.Point{X: 4}, Frame: 1},
		{ID: base + 3, Pickup: geo.Point{X: 5}, Dropoff: geo.Point{X: 9}, Frame: 2},
	}
	s, err := New(cfg, []fleet.Taxi{{ID: 0}, {ID: 7, Pos: geo.Point{X: 3}}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// readBundleFile reads one payload file of the bundle m indexes.
func readBundleFile(t *testing.T, dir string, m flightrec.Manifest, kind string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no bundle under %s (err %v)", dir, err)
	}
	name, ok := m.Files[kind]
	if !ok {
		t.Fatalf("bundle lists no %s file: %v", kind, m.Files)
	}
	raw, err := os.ReadFile(filepath.Join(dir, entries[len(entries)-1].Name(), name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBundleReadsSimulatorStores checks a bundle is a read of its own
// simulator's stores: kpi.csv is byte-equal to the KPI ring's snapshot
// and the stages section summarises the same samples, events.jsonl is
// the event tail, trace.json is present exactly when the simulator has
// a tracer, and of two simulators stepped in one process each bundle
// carries only its own events.
func TestBundleReadsSimulatorStores(t *testing.T) {
	traced := simpleConfig(nearestDispatcher{})
	traced.KPI, traced.Tracer = tseries.New(tseries.Config{Capacity: 64}), dtrace.New(0)
	plain := simpleConfig(nearestDispatcher{})
	plain.KPI = tseries.New(tseries.Config{Capacity: 64})
	sa, dirA := bundledSim(t, traced, 0, 1<<20)
	sb, dirB := bundledSim(t, plain, 100, 1<<20)
	for i := 0; i < 8; i++ {
		for _, s := range []*Simulator{sa, sb} {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		s      *Simulator
		dir    string
		traced bool
		minID  int
	}{{sa, dirA, true, 1}, {sb, dirB, false, 101}} {
		// The recorder's first trigger is outside any cooldown.
		if path, err := tc.s.Recorder().Trigger(int64(tc.s.Frame()), flightrec.ReasonOverrun, ""); err != nil || path == "" {
			t.Fatalf("trigger: path=%q err=%v", path, err)
		}
		m := onlyBundle(t, tc.dir)

		samples := tc.s.KPIRecorder().Snapshot()
		var want bytes.Buffer
		if err := tseries.WriteCSV(&want, samples, nil); err != nil {
			t.Fatal(err)
		}
		if got := readBundleFile(t, tc.dir, m, "kpi"); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("kpi.csv differs from the ring's snapshot:\n%s\nwant\n%s", got, want.Bytes())
		}
		_, wantStages := tseries.StageBreakdown(samples)
		raw, err := json.Marshal(m.Sections["stages"])
		if err != nil {
			t.Fatal(err)
		}
		var gotStages []tseries.StageSummary
		if err := json.Unmarshal(raw, &gotStages); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotStages, wantStages) {
			t.Errorf("stages section = %+v, want the breakdown of kpi.csv's samples %+v", gotStages, wantStages)
		}

		events, err := ReadJSONL(bytes.NewReader(readBundleFile(t, tc.dir, m, "events")))
		if err != nil {
			t.Fatal(err)
		}
		if tail := tc.s.RecentEvents(); len(tail) == 0 || !reflect.DeepEqual(events, tail) {
			t.Errorf("events.jsonl = %v, want the simulator's tail %v", events, tail)
		}
		for _, e := range events {
			if e.RequestID < tc.minID || e.RequestID > tc.minID+2 {
				t.Errorf("bundle holds request %d, which belongs to the other simulator", e.RequestID)
			}
		}
		if _, ok := m.Files["trace"]; ok != tc.traced {
			t.Errorf("trace.json listed = %v, want %v (tracer set: %v)", ok, tc.traced, tc.traced)
		}
		if m.Sections["faults"] == nil {
			t.Error("manifest lacks the faults section")
		}
	}
}

// TestInFrameTriggersBundleTheirFrame checks degrade and stability
// triggers, raised mid-frame, bundle once the frame is over: the
// bundle's last kpi.csv row is the trigger frame, and without a KPI ring
// or ledger the event tail already holds the frame's assignments.
func TestInFrameTriggersBundleTheirFrame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		d      Dispatcher
		kpi    bool
		traced bool
		reason flightrec.Reason
	}{
		{"degrade", degradingDispatcher{}, true, false, flightrec.ReasonDegraded},
		{"stability", farthestDispatcher{}, true, true, flightrec.ReasonStability},
		{"degrade-fast-path", degradingDispatcher{}, false, false, flightrec.ReasonDegraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simpleConfig(tc.d)
			if tc.kpi {
				cfg.KPI = tseries.New(tseries.Config{Capacity: 64})
			}
			if tc.traced {
				cfg.Tracer = dtrace.New(0)
			}
			s, dir := bundledSim(t, cfg, 0, 1<<20)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			m := onlyBundle(t, dir)
			if m.Trigger.Reason != tc.reason {
				t.Fatalf("trigger = %+v, want %s", m.Trigger, tc.reason)
			}
			if tc.kpi {
				rows := strings.Split(strings.TrimSpace(string(readBundleFile(t, dir, m, "kpi"))), "\n")
				last, _, _ := strings.Cut(rows[len(rows)-1], ",")
				if last != strconv.FormatInt(m.Trigger.Frame, 10) {
					t.Errorf("kpi.csv ends at frame %q, want the trigger frame %d", last, m.Trigger.Frame)
				}
				return
			}
			if _, ok := m.Files["kpi"]; ok {
				t.Error("kpi.csv written without a KPI ring")
			}
			events, err := ReadJSONL(bytes.NewReader(readBundleFile(t, dir, m, "events")))
			if err != nil {
				t.Fatal(err)
			}
			assigned := false
			for _, e := range events {
				assigned = assigned || (e.Kind == EventAssign && int64(e.Frame) == m.Trigger.Frame)
			}
			if !assigned {
				t.Errorf("events.jsonl lacks frame %d's assignment: %v", m.Trigger.Frame, events)
			}
		})
	}
}

// TestEventTailEviction checks the tail keeps the newest
// EventTailCapacity events, oldest first.
func TestEventTailEviction(t *testing.T) {
	s, err := New(simpleConfig(nearestDispatcher{}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < EventTailCapacity+5; i++ {
		s.tail.add(Event{Frame: i})
	}
	got := s.RecentEvents()
	if len(got) != EventTailCapacity || got[0].Frame != 5 || got[len(got)-1].Frame != EventTailCapacity+4 {
		t.Errorf("tail holds %d events, frames %d..%d; want %d, frames 5..%d",
			len(got), got[0].Frame, got[len(got)-1].Frame, EventTailCapacity, EventTailCapacity+4)
	}
}

// TestBundleWhileStepping bundles and reads the event tail from another
// goroutine while the simulator steps, as dispatchd's HTTP panic
// trigger does; run under -race it checks every store a bundle reads is
// synchronised. The recorder's 1-frame cooldown admits each of the
// goroutine's triggers, made at increasing frames, and the simulator
// keeps stepping until more than one of them has written its bundle.
func TestBundleWhileStepping(t *testing.T) {
	cfg := simpleConfig(farthestDispatcher{})
	cfg.KPI, cfg.Tracer = tseries.New(tseries.Config{Capacity: 64}), dtrace.New(0)
	s, _ := bundledSim(t, cfg, 0, 1)
	rec := s.Recorder()
	var written atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for frame := int64(1 << 20); ; frame++ {
			select {
			case <-stop:
				return
			default:
			}
			path, err := rec.Trigger(frame, flightrec.ReasonPanic, "")
			if err != nil {
				t.Error(err)
				return
			}
			if path != "" {
				written.Add(1)
			}
			s.RecentEvents()
		}
	}()
	for steps := 0; !s.Done() || written.Load() < 2; steps++ {
		if steps == 1_000_000 {
			t.Error("the triggering goroutine wrote fewer than 2 bundles while the simulator stepped")
			break
		}
		if err := s.Step(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-done
	if n := written.Load(); n < 2 {
		t.Errorf("bundles written while stepping = %d, want more than 1", n)
	}
}
