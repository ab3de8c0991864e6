package flightrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var errNoDir = errors.New("flightrec: Config.Dir is required")

// ManifestSchema versions the bundle manifest layout; readers check it
// before trusting field shapes.
const ManifestSchema = "flightrec/v2"

// Manifest is the machine-readable index of one bundle. It is written
// as manifest.json and is the contract the CI watchdog and the degrade-
// pipeline test validate.
type Manifest struct {
	Schema  string          `json:"schema"`
	Seq     int             `json:"seq"`
	Trigger ManifestTrigger `json:"trigger"`
	// Suppressed counts triggers the rate limit turned away before
	// this bundle.
	Suppressed uint64 `json:"suppressed"`
	// Files lists the bundle's payload files, kind → filename.
	Files map[string]string `json:"files"`
	// Sections carries the contents' manifest payloads under their key
	// (a simulator registers "slo", "stages" and "faults").
	Sections map[string]any `json:"sections,omitempty"`
}

// ManifestTrigger names what fired the bundle.
type ManifestTrigger struct {
	Reason Reason `json:"reason"`
	Detail string `json:"detail,omitempty"`
	Frame  int64  `json:"frame"`
}

// bundle is one admitted bundle on its way to the writer.
type bundle struct {
	Contents
	seq        int
	trigger    ManifestTrigger
	suppressed uint64
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

// writeBundle renders one bundle as a directory: every payload file,
// then the manifest indexing them.
func (r *Recorder) writeBundle(b bundle) (string, error) {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: create bundle dir: %w", err)
	}
	name := fmt.Sprintf("%s%06d-f%06d-%s", DefaultBundlePrefix, b.seq, b.trigger.Frame, sanitizeReason(b.trigger.Reason))
	dir := filepath.Join(r.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: create bundle: %w", err)
	}

	m := Manifest{
		Schema:     ManifestSchema,
		Seq:        b.seq,
		Trigger:    b.trigger,
		Suppressed: b.suppressed,
		Files:      map[string]string{"manifest": "manifest.json"},
		Sections:   b.Sections,
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, a := range b.Files {
		if a.Kind == "" || a.Name == "" || a.Fill == nil {
			continue
		}
		keep(writeFile(dir, a.Name, a.Fill))
		m.Files[a.Kind] = a.Name
	}
	keep(writeFile(dir, "manifest.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}))

	if firstErr != nil {
		return dir, fmt.Errorf("flightrec: write bundle %s: %w", name, firstErr)
	}
	return dir, nil
}

func writeFile(dir, name string, fill func(io.Writer) error) error {
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
