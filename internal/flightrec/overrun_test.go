package flightrec

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"stabledispatch/internal/prof"
)

// sealed is a ledger frame as Ledger.EndFrame seals it.
func sealed(frame int64, overrun bool) prof.FrameProfile {
	return prof.FrameProfile{Frame: frame, WallNs: 10e6, Overrun: overrun}
}

// readProfile parses one bundle's profile.json.
func readProfile(t *testing.T, bdir string) OverrunCapture {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(bdir, "profile.json"))
	if err != nil {
		t.Fatalf("read profile.json: %v", err)
	}
	var oc OverrunCapture
	if err := json.Unmarshal(raw, &oc); err != nil {
		t.Fatalf("parse profile.json: %v", err)
	}
	return oc
}

// TestOverrunHandlerBundlesCapture feeds a synthetic overrun frame and
// the frames after it through Observe and checks the capture's bundle
// is written on its CaptureFrames-th frame, under the frame_overrun
// reason at the overrun's frame, with the attribution and pprof
// evidence next to the registered contents.
func TestOverrunHandlerBundlesCapture(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, CaptureFrames: 3})
	registerFiles(r, 5)

	trig := sealed(412, true)
	trig.WallNs = 90e6
	trig.StageNs[prof.StageMatching] = 70e6
	trig.StageCalls[prof.StageMatching] = 1
	trig.StageNs[prof.StageCostPlane] = 10e6
	trig.StageCalls[prof.StageCostPlane] = 1

	for frame := int64(412); frame <= 415; frame++ {
		p := sealed(frame, false)
		if frame == 412 {
			p = trig
		}
		path, err := r.Observe(p, 50e6)
		if err != nil {
			t.Fatalf("Observe(%d): %v", frame, err)
		}
		if (path != "") != (frame == 415) {
			t.Fatalf("Observe(%d) wrote %q; want the bundle on the third frame after the overrun", frame, path)
		}
	}

	bundles := listBundles(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly 1", bundles)
	}
	if !strings.Contains(bundles[0], "f000412-frame_overrun") {
		t.Fatalf("bundle dir %q does not carry the overrun's frame and reason", bundles[0])
	}
	bdir := filepath.Join(dir, bundles[0])
	m, err := ReadManifest(bdir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Trigger.Reason != ReasonOverrun || m.Trigger.Frame != 412 {
		t.Fatalf("manifest trigger = %+v", m.Trigger)
	}
	if !strings.Contains(m.Trigger.Detail, "78% in matching") {
		t.Fatalf("detail %q missing dominant-stage attribution", m.Trigger.Detail)
	}
	for kind, name := range map[string]string{
		"profile": "profile.json", "cpu": "cpu.pprof",
		"heap_pre": "heap_pre.pprof", "heap": "heap.pprof",
		"kpi": "kpi.csv", "events": "events.jsonl", // registered contents ride along
	} {
		if m.Files[kind] != name {
			t.Fatalf("manifest files[%q] = %q, want %q (files=%v)", kind, m.Files[kind], name, m.Files)
		}
		if _, err := os.Stat(filepath.Join(bdir, name)); err != nil {
			t.Fatalf("attachment %s: %v", name, err)
		}
	}

	oc := readProfile(t, bdir)
	if oc.Schema != OverrunCaptureSchema || oc.BudgetNs != 50e6 || oc.Frames != 3 {
		t.Fatalf("profile.json = %+v", oc)
	}
	if oc.Trigger.Frame != 412 || len(oc.Trigger.Stages) != 2 {
		t.Fatalf("profile.json trigger = %+v", oc.Trigger)
	}
}

// TestOverrunHandlerSkipsEmptyCPU checks a capture that could not start
// the CPU profiler (a live /debug/pprof session owns it) still bundles
// the heap pair, and that Close writes a capture cut short by the end
// of its run, counting only the frames it profiled.
func TestOverrunHandlerSkipsEmptyCPU(t *testing.T) {
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	defer pprof.StopCPUProfile()
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, CaptureFrames: 30})

	for frame := int64(9); frame < 12; frame++ {
		if path, err := r.Observe(sealed(frame, frame == 9), 1e6); err != nil || path != "" {
			t.Fatalf("Observe(%d): path=%q err=%v; want the capture still running", frame, path, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	bundles := listBundles(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want 1", bundles)
	}
	bdir := filepath.Join(dir, bundles[0])
	m, err := ReadManifest(bdir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if _, ok := m.Files["cpu"]; ok {
		t.Fatalf("cpu attachment listed despite a busy profiler: %v", m.Files)
	}
	if m.Files["heap"] != "heap.pprof" || m.Files["heap_pre"] != "heap_pre.pprof" {
		t.Fatalf("heap pair missing: %v", m.Files)
	}
	if oc := readProfile(t, bdir); oc.Frames != 2 || oc.Trigger.Frame != 9 {
		t.Fatalf("profile.json = %+v, want the 2 frames profiled after overrun frame 9", oc)
	}
	if err := r.Close(); err != nil || len(listBundles(t, dir)) != 1 {
		t.Fatalf("second Close: err=%v bundles=%v, want nothing more written", err, listBundles(t, dir))
	}
}

// TestOneCooldownForEveryTrigger checks an overrun is an ordinary
// trigger under the recorder's one rate limit: an overrun inside an
// slo_breach bundle's cooldown starts no capture; an slo_breach or a
// second overrun while a capture runs is suppressed, even past the
// cooldown; the admitted capture's bundle is at its overrun's frame
// with no forced marker and the full pprof evidence; and a run of
// overruns gives exactly one bundle.
func TestOneCooldownForEveryTrigger(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, CooldownFrames: 10, CaptureFrames: 50})
	registerFiles(r, 3)

	if path, err := r.Trigger(0, ReasonSLOBreach, ""); err != nil || path == "" {
		t.Fatalf("slo_breach: path=%q err=%v", path, err)
	}
	if _, err := r.Observe(sealed(5, true), 1); err != nil {
		t.Fatal(err)
	}
	if r.capture != nil || r.Suppressed() != 1 {
		t.Fatalf("overrun inside the cooldown: capture running %v, suppressed %d; want none and 1",
			r.capture != nil, r.Suppressed())
	}

	var written string
	for frame := int64(20); frame <= 70; frame++ {
		if frame == 40 {
			// Past the cooldown, but the capture is running.
			if path, err := r.Trigger(frame, ReasonSLOBreach, ""); err != nil || path != "" {
				t.Fatalf("slo_breach during the capture: path=%q err=%v", path, err)
			}
		}
		path, err := r.Observe(sealed(frame, frame == 20 || frame == 41), 1)
		if err != nil {
			t.Fatal(err)
		}
		if path != "" {
			if frame != 70 {
				t.Fatalf("capture bundle written at frame %d, want 70 (50 frames after 20)", frame)
			}
			written = path
		}
	}
	if written == "" {
		t.Fatal("the admitted capture wrote no bundle")
	}
	if got := r.Suppressed(); got != 3 {
		t.Errorf("suppressed = %d, want 3 (the cooled overrun, the breach and the overrun during the capture)", got)
	}
	if got := r.Bundles(); got != 2 {
		t.Errorf("bundles = %d, want 2", got)
	}
	m, err := ReadManifest(written)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 2 || m.Trigger.Reason != ReasonOverrun || m.Trigger.Frame != 20 || m.Suppressed != 1 {
		t.Errorf("manifest = %+v, want seq 2, frame_overrun at frame 20, 1 suppressed before it", m)
	}
	raw, err := os.ReadFile(filepath.Join(written, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"forced"`) {
		t.Errorf("manifest carries a forced key:\n%s", raw)
	}
	for _, name := range []string{"cpu.pprof", "heap_pre.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(written, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (err %v)", name, err)
		}
	}

	// 40 overruns in a row: the first captures, the rest are suppressed.
	runDir := t.TempDir()
	run := newTestRecorder(t, Config{Dir: runDir, CaptureFrames: 2})
	for frame := int64(0); frame < 40; frame++ {
		if _, err := run.Observe(sealed(frame, true), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := listBundles(t, runDir); len(got) != 1 || run.Suppressed() != 39 {
		t.Errorf("40 overruns: bundles %v, suppressed %d; want exactly 1 bundle and 39 suppressed", got, run.Suppressed())
	}
}
