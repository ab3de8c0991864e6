package flightrec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stabledispatch/internal/prof"
)

// TestOverrunHandlerBundlesCapture feeds a synthetic prof capture
// through TriggerOverrun and checks the bundle carries the attribution and
// pprof evidence under the frame_overrun reason.
func TestOverrunHandlerBundlesCapture(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, Frames: 8, Events: 16})
	fillFrames(r, 5)

	var trig prof.FrameProfile
	trig.Frame = 412
	trig.WallNs = 90e6
	trig.Overrun = true
	trig.StageNs[prof.StageMatching] = 70e6
	trig.StageCalls[prof.StageMatching] = 1
	trig.StageNs[prof.StageCostPlane] = 10e6
	trig.StageCalls[prof.StageCostPlane] = 1

	if _, err := r.TriggerOverrun(prof.Capture{
		Trigger:    trig,
		BudgetNs:   50e6,
		Frames:     3,
		Suppressed: 2,
		CPU:        []byte("cpu-profile-bytes"),
		HeapPre:    []byte("heap-pre-bytes"),
		Heap:       []byte("heap-post-bytes"),
	}); err != nil {
		t.Fatalf("TriggerOverrun: %v", err)
	}

	bundles := listBundles(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly 1", bundles)
	}
	if !strings.Contains(bundles[0], "frame_overrun") {
		t.Fatalf("bundle dir %q does not carry the overrun reason", bundles[0])
	}
	bdir := filepath.Join(dir, bundles[0])
	m, err := ReadManifest(bdir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Trigger.Reason != ReasonOverrun || !m.Trigger.Forced || m.Trigger.Frame != 412 {
		t.Fatalf("manifest trigger = %+v", m.Trigger)
	}
	if !strings.Contains(m.Trigger.Detail, "78% in matching") {
		t.Fatalf("detail %q missing dominant-stage attribution", m.Trigger.Detail)
	}
	for kind, name := range map[string]string{
		"profile": "profile.json", "cpu": "cpu.pprof",
		"heap_pre": "heap_pre.pprof", "heap": "heap.pprof",
	} {
		if m.Files[kind] != name {
			t.Fatalf("manifest files[%q] = %q, want %q (files=%v)", kind, m.Files[kind], name, m.Files)
		}
		if _, err := os.Stat(filepath.Join(bdir, name)); err != nil {
			t.Fatalf("attachment %s: %v", name, err)
		}
	}

	raw, err := os.ReadFile(filepath.Join(bdir, "profile.json"))
	if err != nil {
		t.Fatalf("read profile.json: %v", err)
	}
	var oc OverrunCapture
	if err := json.Unmarshal(raw, &oc); err != nil {
		t.Fatalf("parse profile.json: %v", err)
	}
	if oc.Schema != OverrunCaptureSchema || oc.BudgetNs != 50e6 || oc.Suppressed != 2 {
		t.Fatalf("profile.json = %+v", oc)
	}
	if oc.Trigger.Frame != 412 || len(oc.Trigger.Stages) != 2 {
		t.Fatalf("profile.json trigger = %+v", oc.Trigger)
	}
}

// TestOverrunHandlerSkipsEmptyCPU checks a capture without a CPU
// profile (profiler was busy) still bundles the heap pair.
func TestOverrunHandlerSkipsEmptyCPU(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir})

	var trig prof.FrameProfile
	trig.Frame = 9
	trig.WallNs = 10e6
	if _, err := r.TriggerOverrun(prof.Capture{
		Trigger: trig, BudgetNs: 1e6, Frames: 1,
		HeapPre: []byte("pre"), Heap: []byte("post"),
	}); err != nil {
		t.Fatalf("TriggerOverrun: %v", err)
	}
	bundles := listBundles(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want 1", bundles)
	}
	m, err := ReadManifest(filepath.Join(dir, bundles[0]))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if _, ok := m.Files["cpu"]; ok {
		t.Fatalf("cpu attachment listed despite empty capture: %v", m.Files)
	}
	if m.Files["heap"] != "heap.pprof" || m.Files["heap_pre"] != "heap_pre.pprof" {
		t.Fatalf("heap pair missing: %v", m.Files)
	}
}
