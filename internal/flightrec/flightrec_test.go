package flightrec

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	// A test that stops early must not leave the CPU profiler running.
	t.Cleanup(func() { r.Close() })
	return r
}

// registerFiles registers contents the way a simulator does: a KPI CSV
// with a header and n rows, an n-line event tail, and an slo section.
// Each call of the contents function renders the store as it is then.
func registerFiles(r *Recorder, n int) {
	r.SetContents(func() Contents {
		var kpi, events strings.Builder
		kpi.WriteString("frame,served\n")
		for f := 0; f < n; f++ {
			fmt.Fprintf(&kpi, "%d,%d\n", f, 2*f)
			fmt.Fprintf(&events, "{\"frame\":%d,\"kind\":\"request\"}\n", f)
		}
		return Contents{
			Sections: map[string]any{"slo": map[string]string{"delay": "breach"}},
			Files: []Attachment{
				{Kind: "kpi", Name: "kpi.csv", Fill: writeString(kpi.String())},
				{Kind: "events", Name: "events.jsonl", Fill: writeString(events.String())},
			},
		}
	})
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
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

// TestBundleContents triggers twice and checks the manifest contract
// the CI watchdog depends on, and that every bundle holds the
// registered contents as they were at its own trigger.
func TestBundleContents(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, CooldownFrames: 1})
	rows := 3
	r.SetContents(func() Contents {
		var kpi strings.Builder
		kpi.WriteString("frame\n")
		for f := 0; f < rows; f++ {
			fmt.Fprintf(&kpi, "%d\n", f)
		}
		return Contents{
			Sections: map[string]any{"slo": map[string]string{"delay": "breach"}},
			Files:    []Attachment{{Kind: "kpi", Name: "kpi.csv", Fill: writeString(kpi.String())}},
		}
	})

	path, err := r.Trigger(19, ReasonDegraded, "deadline 1ms exceeded")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	rows = 5
	later, err := r.Trigger(30, ReasonDegraded, "")
	if err != nil {
		t.Fatalf("second Trigger: %v", err)
	}

	m, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Schema != ManifestSchema || ManifestSchema != "flightrec/v2" {
		t.Errorf("schema = %q", m.Schema)
	}
	if m.Trigger.Reason != ReasonDegraded || m.Trigger.Frame != 19 {
		t.Errorf("trigger = %+v", m.Trigger)
	}
	if m.Trigger.Detail != "deadline 1ms exceeded" {
		t.Errorf("detail = %q", m.Trigger.Detail)
	}
	if got := m.Sections["slo"]; got == nil {
		t.Error("registered manifest section missing")
	}
	if len(m.Files) != 2 || m.Files["manifest"] != "manifest.json" || m.Files["kpi"] != "kpi.csv" {
		t.Errorf("files = %v, want exactly the manifest and the registered kpi.csv", m.Files)
	}

	// Each bundle froze the store as it was at its own trigger.
	for _, tc := range []struct {
		path string
		want int
	}{{path, 3}, {later, 5}} {
		raw, err := os.ReadFile(filepath.Join(tc.path, "kpi.csv"))
		if err != nil {
			t.Fatalf("read kpi.csv: %v", err)
		}
		if lines := strings.Split(strings.TrimSpace(string(raw)), "\n"); len(lines) != 1+tc.want {
			t.Errorf("%s: kpi.csv has %d lines, want %d", filepath.Base(tc.path), len(lines), 1+tc.want)
		}
	}
}

// TestNoContentsWritesManifestOnly checks a recorder with nothing
// registered still writes a valid manifest-only bundle (its first
// trigger, which no cooldown holds back).
func TestNoContentsWritesManifestOnly(t *testing.T) {
	r := newTestRecorder(t, Config{})
	path, err := r.Trigger(0, ReasonPanic, "")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if len(m.Files) != 1 || m.Sections != nil {
		t.Errorf("files = %v, sections = %v, want the manifest alone", m.Files, m.Sections)
	}
}

// TestCooldownSuppresses checks the trigger rate limit and the epoch
// reset when the frame counter restarts.
func TestCooldownSuppresses(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, CooldownFrames: 100})
	registerFiles(r, 5)

	if path, err := r.Trigger(10, ReasonSLOBreach, ""); err != nil || path == "" {
		t.Fatalf("first trigger: path=%q err=%v", path, err)
	}
	// Inside the cooldown: suppressed, no error, no new directory.
	if path, err := r.Trigger(50, ReasonSLOBreach, ""); err != nil || path != "" {
		t.Fatalf("suppressed trigger: path=%q err=%v", path, err)
	}
	if got := r.Suppressed(); got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
	// Past the cooldown (measured from the first bundle's frame).
	if path, err := r.Trigger(110, ReasonSLOBreach, ""); err != nil || path == "" {
		t.Fatalf("post-cooldown trigger: path=%q err=%v", path, err)
	}
	// Frame counter restarted (new run): cooldown re-arms rather than
	// suppressing forever.
	if path, err := r.Trigger(3, ReasonSLOBreach, ""); err != nil || path == "" {
		t.Fatalf("epoch-reset trigger: path=%q err=%v", path, err)
	}
	if got := len(listBundles(t, dir)); got != 3 {
		t.Errorf("bundle count = %d, want 3", got)
	}
}

// TestRetentionPrunesOldest fills past MaxBundles, every trigger past
// the previous one's cooldown, and checks the oldest sequence
// directories are removed.
func TestRetentionPrunesOldest(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, MaxBundles: 3, CooldownFrames: 1})
	registerFiles(r, 2)
	for i := 0; i < 6; i++ {
		if path, err := r.Trigger(int64(i*10), ReasonSLOBreach, ""); err != nil || path == "" {
			t.Fatalf("trigger %d: path=%q err=%v", i, path, err)
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
	if got := r.Config(); got.CooldownFrames != DefaultCooldown || got.CaptureFrames != DefaultCaptureFrames || got.MaxBundles != DefaultMaxBundles {
		t.Errorf("default config = %+v, want cooldown %d, capture frames %d, max bundles %d",
			got, DefaultCooldown, DefaultCaptureFrames, DefaultMaxBundles)
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
	path, err := r.Trigger(0, Reason("SLO/../breach !"), "")
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
