package flightrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"

	"stabledispatch/internal/tseries"
)

var errNoDir = errors.New("flightrec: Config.Dir is required")

// ManifestSchema versions the bundle manifest layout; readers check it
// before trusting field shapes.
const ManifestSchema = "flightrec/v1"

// Manifest is the machine-readable index of one bundle. It is written
// as manifest.json and is the contract the CI watchdog and the degrade-
// pipeline test validate.
type Manifest struct {
	Schema  string          `json:"schema"`
	Seq     int             `json:"seq"`
	Trigger ManifestTrigger `json:"trigger"`
	// Window spans the frames retained in the ring at trigger time.
	Window ManifestWindow `json:"window"`
	// Suppressed counts automatic triggers the cooldown swallowed
	// before this bundle.
	Suppressed uint64 `json:"suppressed"`
	// Files lists the bundle's payload files, kind → filename.
	Files map[string]string `json:"files"`
	// Sections carries extra payloads registered by the simulator under
	// their key: the SLO engine's per-SLO status ("slo") and the
	// frame-budget ledger's stage table ("stages").
	Sections map[string]any `json:"sections,omitempty"`
}

// ManifestTrigger names what fired the bundle.
type ManifestTrigger struct {
	Reason Reason `json:"reason"`
	Detail string `json:"detail,omitempty"`
	Frame  int64  `json:"frame"`
	Forced bool   `json:"forced,omitempty"`
}

// ManifestWindow spans the retained frame ring.
type ManifestWindow struct {
	Frames     int   `json:"frames"`
	FirstFrame int64 `json:"firstFrame"`
	LastFrame  int64 `json:"lastFrame"`
	Events     int   `json:"events"`
}

type manifestSection struct {
	key string
	fn  func() any
}

// bundleSnapshot is the frozen state handed from Trigger (under the
// lock) to the writer (outside it).
type bundleSnapshot struct {
	seq        int
	frame      int64
	reason     Reason
	detail     string
	forced     bool
	frames     []FrameContext
	events     []EventRecord
	suppressed uint64
	sections   []manifestSection
	attached   []Attachment
}

// sanitizeReason keeps bundle directory names shell-safe.
func sanitizeReason(r Reason) string {
	s := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
			return c
		case c >= 'A' && c <= 'Z':
			return c + ('a' - 'A')
		default:
			return '-'
		}
	}, string(r))
	if s == "" {
		s = "trigger"
	}
	return s
}

// writeBundle renders one snapshot as a bundle directory.
func (r *Recorder) writeBundle(snap bundleSnapshot) (string, error) {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: create bundle dir: %w", err)
	}
	name := fmt.Sprintf("%s%06d-f%06d-%s", DefaultBundlePrefix, snap.seq, snap.frame, sanitizeReason(snap.reason))
	dir := filepath.Join(r.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: create bundle: %w", err)
	}

	m := Manifest{
		Schema: ManifestSchema,
		Seq:    snap.seq,
		Trigger: ManifestTrigger{
			Reason: snap.reason,
			Detail: snap.detail,
			Frame:  snap.frame,
			Forced: snap.forced,
		},
		Window: ManifestWindow{
			Frames: len(snap.frames),
			Events: len(snap.events),
		},
		Suppressed: snap.suppressed,
		Files:      map[string]string{"manifest": "manifest.json"},
	}
	if n := len(snap.frames); n > 0 {
		m.Window.FirstFrame = snap.frames[0].Frame
		m.Window.LastFrame = snap.frames[n-1].Frame
	}
	for _, sect := range snap.sections {
		if sect.fn == nil {
			continue
		}
		if m.Sections == nil {
			m.Sections = make(map[string]any)
		}
		m.Sections[sect.key] = sect.fn()
	}

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// KPI window: the ring's samples rendered through the shared CSV
	// writer, every series.
	keep(writeFile(dir, "kpi.csv", func(f *os.File) error {
		samples := make([]tseries.Sample, 0, len(snap.frames))
		for _, fc := range snap.frames {
			samples = append(samples, fc.KPI)
		}
		return tseries.WriteCSV(f, samples, nil)
	}))
	m.Files["kpi"] = "kpi.csv"

	// Per-frame rich context (certificate summaries, fault state).
	keep(writeFile(dir, "frames.jsonl", func(f *os.File) error {
		enc := json.NewEncoder(f)
		for _, fc := range snap.frames {
			if err := enc.Encode(fc); err != nil {
				return err
			}
		}
		return nil
	}))
	m.Files["frames"] = "frames.jsonl"

	// Lifecycle event tail.
	keep(writeFile(dir, "events.jsonl", func(f *os.File) error {
		enc := json.NewEncoder(f)
		for _, ev := range snap.events {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		return nil
	}))
	m.Files["events"] = "events.jsonl"

	// Optional: decision traces as a Chrome trace-event file.
	if tr := r.cfg.Tracer; tr != nil {
		keep(writeFile(dir, "trace.json", func(f *os.File) error { return tr.WriteChromeTrace(f) }))
		m.Files["trace"] = "trace.json"
	}

	// Trigger-site attachments (pprof captures from the frame-budget
	// profiler). Attachments own their Files keys: a capture's
	// stop-time heap profile supersedes the generic Heap option's.
	for _, a := range snap.attached {
		if a.Kind == "" || a.Name == "" || a.Fill == nil {
			continue
		}
		keep(writeFile(dir, a.Name, a.Fill))
		m.Files[a.Kind] = a.Name
	}

	// Optional: heap profile.
	if r.cfg.Heap && m.Files["heap"] == "" {
		keep(writeFile(dir, "heap.pprof", func(f *os.File) error {
			return pprof.WriteHeapProfile(f)
		}))
		m.Files["heap"] = "heap.pprof"
	}

	keep(writeFile(dir, "manifest.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}))

	if firstErr != nil {
		return dir, fmt.Errorf("flightrec: write bundle %s: %w", name, firstErr)
	}
	return dir, nil
}

func writeFile(dir, name string, fill func(*os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// enforceRetention deletes the oldest bundle directories beyond
// MaxBundles. Sequence numbers sort lexicographically (zero-padded), so
// name order is age order.
func (r *Recorder) enforceRetention() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), DefaultBundlePrefix) {
			bundles = append(bundles, e.Name())
		}
	}
	if len(bundles) <= r.cfg.MaxBundles {
		return
	}
	sort.Strings(bundles)
	for _, name := range bundles[:len(bundles)-r.cfg.MaxBundles] {
		if err := os.RemoveAll(filepath.Join(r.cfg.Dir, name)); err != nil {
			r.count(&r.errors)
		}
	}
}

// ReadManifest loads and validates one bundle's manifest (test and
// tooling helper).
func ReadManifest(bundleDir string) (Manifest, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(bundleDir, "manifest.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("flightrec: parse manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return m, fmt.Errorf("flightrec: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	return m, nil
}
