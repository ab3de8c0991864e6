// Package flightrec is the dispatch pipeline's "black box": when
// something goes wrong it freezes the owning simulator's own stores
// into a self-contained diagnostic bundle, so the frames that *caused*
// the incident survive even though the live stores keep rolling.
//
// The recorder keeps no copies of per-frame or per-event state. It owns
// only the trigger policy, the manifest and the file writer; what a
// bundle holds comes from one contents function the simulator registers
// (SetContents), called once per bundle: the KPI ring's retained
// samples (kpi.csv, and the stage table over the same samples), the
// simulator's event tail (events.jsonl), its decision-trace recorder
// (trace.json), the SLO status and the fault state.
//
// Triggers follow a small taxonomy (see Reason): an SLO breach from
// internal/slo, a dispatch.Resilient degrade, a recovered panic, a
// stability-certificate violation from dtrace.Certify, or a
// frame-budget overrun. An overrun is an ordinary trigger whose bundle
// also carries pprof evidence: admitted, it starts a capture that
// profiles the next CaptureFrames frames before its bundle is written
// (Observe, Close).
//
// Every trigger class passes one rate limit: a cooldown in frames
// between bundles, and no new bundle while a capture runs; whatever it
// turns away is counted (Suppressed). Bundles are also retention-capped
// (oldest bundle directories are deleted beyond MaxBundles), so a
// flapping SLO cannot fill a disk.
//
// A recorder belongs to one simulator (sim.Config.Recorder; nil means
// off). The simulator registers its contents and fires its triggers;
// other layers report what happened to the simulator instead of
// reaching the recorder themselves.
package flightrec

import (
	"io"
	"sync"
)

// Reason labels one trigger class. The taxonomy is closed on purpose:
// dashboards and tests match on these strings.
type Reason string

// Trigger taxonomy.
const (
	// ReasonSLOBreach marks an SLO entering the breach state.
	ReasonSLOBreach Reason = "slo_breach"
	// ReasonDegraded marks a dispatch.Resilient frame handed to the
	// fallback dispatcher (deadline overrun, panic, or error).
	ReasonDegraded Reason = "degraded_frame"
	// ReasonPanic marks a recovered panic outside the dispatch path
	// (e.g. an HTTP handler).
	ReasonPanic Reason = "panic"
	// ReasonStability marks a frame whose stability certificate found
	// blocking pairs.
	ReasonStability Reason = "stability_violation"
	// ReasonOverrun marks a frame that blew the frame-budget profiler's
	// deadline budget; the bundle carries the capture's pprof evidence.
	ReasonOverrun Reason = "frame_overrun"
)

// Defaults for Config.
const (
	DefaultCooldown      = 300
	DefaultCaptureFrames = 30
	DefaultMaxBundles    = 8
	DefaultBundlePrefix  = "bundle-"
)

// Config parameterises a Recorder.
type Config struct {
	// Dir is the directory bundles are written into (created on
	// demand). Required.
	Dir string
	// CooldownFrames is the minimum number of frames between two
	// bundles of any reason (default DefaultCooldown).
	CooldownFrames int
	// CaptureFrames is how many frames after an admitted overrun the
	// CPU profile runs before its bundle is written (default
	// DefaultCaptureFrames).
	CaptureFrames int
	// MaxBundles caps retained bundle directories; beyond it the
	// oldest are deleted (default DefaultMaxBundles).
	MaxBundles int
}

func (c Config) withDefaults() Config {
	if c.CooldownFrames <= 0 {
		c.CooldownFrames = DefaultCooldown
	}
	if c.CaptureFrames <= 0 {
		c.CaptureFrames = DefaultCaptureFrames
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = DefaultMaxBundles
	}
	return c
}

// Attachment is one payload file of a bundle. Kind is the manifest
// Files key, Name the filename, and Fill writes the contents.
type Attachment struct {
	Kind string
	Name string
	Fill func(io.Writer) error
}

// Contents is what one bundle holds besides its trigger: manifest
// sections (key → payload) and payload files, frozen together so every
// part of a bundle describes the same moment.
type Contents struct {
	Sections map[string]any
	Files    []Attachment
}

// Recorder is the trigger policy and bundle writer. Safe for
// concurrent use.
type Recorder struct {
	cfg Config

	mu         sync.Mutex
	contents   func() Contents
	seq        int   // bundles attempted so far (the directory sequence)
	written    int   // bundles written successfully
	errors     int   // bundle write and retention-cleanup failures
	lastFrame  int64 // trigger frame of the last admitted bundle
	hasBundled bool
	suppressed uint64
	capture    *capture // the running overrun capture, if any
}

// New builds a recorder. The bundle directory is created lazily at
// first trigger.
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, errNoDir
	}
	return &Recorder{cfg: cfg.withDefaults()}, nil
}

// Config returns the (default-filled) configuration in force.
func (r *Recorder) Config() Config { return r.cfg }

// SetContents registers the function that freezes a bundle's contents;
// it is called once per written bundle, outside the recorder's lock.
// The owning simulator registers it. Re-registering replaces it.
func (r *Recorder) SetContents(fn func() Contents) {
	r.mu.Lock()
	r.contents = fn
	r.mu.Unlock()
}

// Suppressed returns how many triggers the rate limit turned away.
func (r *Recorder) Suppressed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppressed
}

// Bundles returns how many bundles this recorder has written.
func (r *Recorder) Bundles() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.written
}

// Errors returns how many bundle writes and retention deletions failed.
func (r *Recorder) Errors() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errors
}

// count adds one to a counter guarded by r.mu.
func (r *Recorder) count(n *int) {
	r.mu.Lock()
	*n++
	r.mu.Unlock()
}

// Trigger freezes the registered contents and writes one diagnostic
// bundle, returning its directory path. A trigger inside the cooldown
// window, or while an overrun capture runs, is suppressed and returns
// ("", nil). Write failures are counted (Errors) and returned.
func (r *Recorder) Trigger(frame int64, reason Reason, detail string) (string, error) {
	r.mu.Lock()
	b, ok := r.admit(frame, reason, detail)
	r.mu.Unlock()
	if !ok {
		return "", nil
	}
	return r.write(b, nil)
}

// admit is the one rate limit every trigger passes: it suppresses a
// trigger inside the cooldown or during a running capture, and
// otherwise takes the next bundle sequence number. A frame counter that
// went backwards (a new run reusing the recorder) re-arms the cooldown.
// Called under r.mu.
func (r *Recorder) admit(frame int64, reason Reason, detail string) (bundle, bool) {
	cooling := r.hasBundled && frame >= r.lastFrame && frame-r.lastFrame < int64(r.cfg.CooldownFrames)
	if cooling || r.capture != nil {
		r.suppressed++
		return bundle{}, false
	}
	r.seq++
	r.lastFrame = frame
	r.hasBundled = true
	return bundle{
		seq:        r.seq,
		trigger:    ManifestTrigger{Reason: reason, Detail: detail, Frame: frame},
		suppressed: r.suppressed,
	}, true
}

// write freezes the registered contents into the admitted bundle b,
// adds the trigger's own attachments after them, and writes it.
func (r *Recorder) write(b bundle, attachments []Attachment) (string, error) {
	r.mu.Lock()
	contents := r.contents
	r.mu.Unlock()
	if contents != nil {
		b.Contents = contents()
	}
	b.Files = append(b.Files, attachments...)
	dir, err := r.writeBundle(b)
	if err != nil {
		r.count(&r.errors)
		return "", err
	}
	r.count(&r.written)
	r.enforceRetention()
	return dir, nil
}
