package flightrec

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stabledispatch/internal/tseries"
)

func newTestRecorder(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func fillFrames(r *Recorder, n int) {
	for f := 0; f < n; f++ {
		r.ObserveFrame(FrameContext{
			Frame: int64(f),
			KPI:   tseries.Sample{Frame: int64(f), Served: int64(f * 2)},
		})
		r.RecordEvent(int64(f), map[string]any{"kind": "request_arrived", "frame": f})
	}
}

func listBundles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), DefaultBundlePrefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestBundleContents triggers once and checks every payload file plus
// the manifest contract the CI watchdog depends on.
func TestBundleContents(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, Frames: 8, Events: 16})
	fillFrames(r, 20) // overflows both rings
	r.AddManifestSection("slo", func() any { return map[string]string{"delay": "breach"} })

	path, err := r.Trigger(19, ReasonDegraded, "deadline 1ms exceeded", false)
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Schema != ManifestSchema {
		t.Errorf("schema = %q", m.Schema)
	}
	if m.Trigger.Reason != ReasonDegraded || m.Trigger.Frame != 19 {
		t.Errorf("trigger = %+v", m.Trigger)
	}
	if m.Trigger.Detail != "deadline 1ms exceeded" {
		t.Errorf("detail = %q", m.Trigger.Detail)
	}
	// The 8-frame ring retained frames 12..19.
	if m.Window.Frames != 8 || m.Window.FirstFrame != 12 || m.Window.LastFrame != 19 {
		t.Errorf("window = %+v", m.Window)
	}
	if m.Window.Events != 16 {
		t.Errorf("events in window = %d, want 16", m.Window.Events)
	}
	if got := m.Sections["slo"]; got == nil {
		t.Error("registered manifest section missing")
	}

	// KPI CSV: header plus one row per retained frame.
	raw, err := os.ReadFile(filepath.Join(path, m.Files["kpi"]))
	if err != nil {
		t.Fatalf("read kpi.csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1+8 {
		t.Errorf("kpi.csv has %d lines, want 9", len(lines))
	}
	if !strings.HasPrefix(lines[0], "frame,") {
		t.Errorf("kpi.csv header = %q", lines[0])
	}

	// Event tail and frame context are line-valid JSON.
	for _, file := range []string{m.Files["events"], m.Files["frames"]} {
		f, err := os.Open(filepath.Join(path, file))
		if err != nil {
			t.Fatalf("open %s: %v", file, err)
		}
		sc := bufio.NewScanner(f)
		n := 0
		for sc.Scan() {
			var v map[string]any
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Errorf("%s line %d invalid JSON: %v", file, n, err)
			}
			n++
		}
		f.Close()
		if n == 0 {
			t.Errorf("%s is empty", file)
		}
	}
}

// TestCooldownSuppresses checks the automatic-trigger rate limit, the
// forced bypass, and the epoch reset when the frame counter restarts.
func TestCooldownSuppresses(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, CooldownFrames: 100})
	fillFrames(r, 5)

	if path, err := r.Trigger(10, ReasonSLOBreach, "", false); err != nil || path == "" {
		t.Fatalf("first trigger: path=%q err=%v", path, err)
	}
	// Inside the cooldown: suppressed, no error, no new directory.
	if path, err := r.Trigger(50, ReasonSLOBreach, "", false); err != nil || path != "" {
		t.Fatalf("suppressed trigger: path=%q err=%v", path, err)
	}
	if got := r.Suppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
	// Forced bypasses the cooldown.
	if path, err := r.Trigger(60, ReasonManual, "operator", true); err != nil || path == "" {
		t.Fatalf("forced trigger: path=%q err=%v", path, err)
	}
	// Past the cooldown (measured from the forced trigger's frame).
	if path, err := r.Trigger(200, ReasonSLOBreach, "", false); err != nil || path == "" {
		t.Fatalf("post-cooldown trigger: path=%q err=%v", path, err)
	}
	// Frame counter restarted (new run): cooldown re-arms rather than
	// suppressing forever.
	if path, err := r.Trigger(3, ReasonSLOBreach, "", false); err != nil || path == "" {
		t.Fatalf("epoch-reset trigger: path=%q err=%v", path, err)
	}
	if got := len(listBundles(t, dir)); got != 4 {
		t.Errorf("bundle count = %d, want 4", got)
	}
}

// TestRetentionPrunesOldest fills past MaxBundles and checks the oldest
// sequence directories are removed.
func TestRetentionPrunesOldest(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, MaxBundles: 3, CooldownFrames: 1})
	fillFrames(r, 2)
	for i := 0; i < 6; i++ {
		if _, err := r.Trigger(int64(i*10), ReasonManual, "", true); err != nil {
			t.Fatalf("trigger %d: %v", i, err)
		}
	}
	bundles := listBundles(t, dir)
	if len(bundles) != 3 {
		t.Fatalf("retained %d bundles, want 3: %v", len(bundles), bundles)
	}
	// Survivors are the newest sequences (4, 5, 6).
	for _, name := range bundles {
		if strings.HasPrefix(name, DefaultBundlePrefix+"00000") &&
			(strings.Contains(name, "000001-") || strings.Contains(name, "000002-") || strings.Contains(name, "000003-")) {
			t.Errorf("old bundle %s survived retention", name)
		}
	}
}

// TestNewDefaultsAndRequiresDir pins the constructor contract: zero
// bounds take their defaults, and a recorder without a directory is
// refused.
func TestNewDefaultsAndRequiresDir(t *testing.T) {
	r := newTestRecorder(t, Config{})
	if got := r.Config().Frames; got != DefaultFrames {
		t.Errorf("default Frames = %d, want %d", got, DefaultFrames)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted empty Dir")
	}
}

// TestReasonSanitized keeps directory names shell-safe even for hostile
// detail strings routed into the reason.
func TestReasonSanitized(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir})
	path, err := r.Trigger(0, Reason("SLO/../breach !"), "", true)
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	base := filepath.Base(path)
	if strings.ContainsAny(base, "/ !.") && !strings.HasSuffix(base, "slo----breach--") {
		t.Errorf("unsanitised bundle name %q", base)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("bundle escaped its directory: %s", path)
	}
}
