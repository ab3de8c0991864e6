// Package flightrec is the dispatch pipeline's "black box": a bounded
// ring of rich per-frame context (the KPI sample, the lifecycle event
// tail, the frame's stability-certificate summary, and the
// fault-injection state) that is continuously overwritten while the run
// is healthy and frozen into a self-contained diagnostic bundle the
// moment something goes wrong.
//
// Triggers follow a small taxonomy (see Reason): an SLO breach from
// internal/slo, a dispatch.Resilient degrade, a recovered panic, a
// stability-certificate violation from dtrace.Certify, or a manual
// operator request (POST /v1/debug/bundle). On a trigger the recorder
// snapshots its rings under the lock and writes a bundle directory —
// manifest JSON, KPI window CSV, event tail JSONL, per-frame context
// JSONL, and optionally a Chrome decision trace and a pprof heap
// snapshot — so the frames that *caused* the incident survive even
// though the live rings keep rolling.
//
// Bundles are rate-limited (a cooldown in frames between automatic
// triggers; manual triggers may force) and retention-capped (oldest
// bundle directories are deleted beyond MaxBundles), so a flapping SLO
// cannot fill a disk.
//
// A recorder belongs to one simulator (sim.Config.Recorder; nil means
// off). The simulator feeds its rings and fires its triggers; other
// layers report what happened to the simulator instead of reaching the
// recorder themselves.
package flightrec

import (
	"os"
	"sync"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/tseries"
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
	// ReasonManual marks an operator-requested bundle.
	ReasonManual Reason = "manual"
)

// Defaults for Config.
const (
	DefaultFrames       = 120
	DefaultEvents       = 4096
	DefaultCooldown     = 300
	DefaultMaxBundles   = 8
	DefaultBundlePrefix = "bundle-"
)

// Config parameterises a Recorder.
type Config struct {
	// Dir is the directory bundles are written into (created on
	// demand). Required.
	Dir string
	// Frames bounds the per-frame context ring (default DefaultFrames).
	Frames int
	// Events bounds the lifecycle event tail (default DefaultEvents).
	Events int
	// CooldownFrames is the minimum number of frames between two
	// automatic bundles (default DefaultCooldown). Forced (manual)
	// triggers ignore it.
	CooldownFrames int
	// MaxBundles caps retained bundle directories; beyond it the
	// oldest are deleted (default DefaultMaxBundles).
	MaxBundles int
	// Heap, when true, adds a pprof heap snapshot to every bundle.
	Heap bool
	// Tracer, when non-nil, is the owning simulator's decision-trace
	// recorder; every bundle then carries its traces as a Chrome
	// trace-event file.
	Tracer *dtrace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Frames <= 0 {
		c.Frames = DefaultFrames
	}
	if c.Events <= 0 {
		c.Events = DefaultEvents
	}
	if c.CooldownFrames <= 0 {
		c.CooldownFrames = DefaultCooldown
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = DefaultMaxBundles
	}
	return c
}

// CertSummary condenses one frame's stability certificate for the ring
// (the full certificate lives in dtrace's own ring).
type CertSummary struct {
	Stable     bool `json:"stable"`
	Violations int  `json:"violations"`
	Matched    int  `json:"matched"`
	Requests   int  `json:"requests"`
	Taxis      int  `json:"taxis"`
}

// FaultInfo is the fault-injection state carried into the manifest.
type FaultInfo struct {
	Seed                int64   `json:"seed"`
	BreakdownRate       float64 `json:"breakdownRate"`
	DriverCancelRate    float64 `json:"driverCancelRate"`
	PassengerCancelRate float64 `json:"passengerCancelRate"`
	// ActiveOutages counts taxis offline this frame (configured
	// outages, chaos injections, and breakdown repairs).
	ActiveOutages int `json:"activeOutages"`
}

// FrameContext is one frame's rich context in the ring.
type FrameContext struct {
	Frame int64          `json:"frame"`
	KPI   tseries.Sample `json:"kpi"`
	// Cert is the frame's stability-certificate summary (nil when
	// decision tracing is off).
	Cert *CertSummary `json:"cert,omitempty"`
	// Fault is the fault-injection state (nil when no injector is
	// configured).
	Fault *FaultInfo `json:"fault,omitempty"`
}

// EventRecord is one lifecycle event in the tail. Payload is the
// sink-side event value (sim.Event in practice), marshalled verbatim
// into events.jsonl.
type EventRecord struct {
	Frame   int64 `json:"frame"`
	Payload any   `json:"event"`
}

// Recorder is the bounded black box. Safe for concurrent use.
type Recorder struct {
	cfg Config

	mu         sync.Mutex
	frames     []FrameContext // ring
	frameHead  int
	frameN     int
	events     []EventRecord // ring
	eventHead  int
	eventN     int
	seq        int   // bundles attempted so far (the directory sequence)
	written    int   // bundles written successfully
	errors     int   // bundle write and retention-cleanup failures
	lastFrame  int64 // frame of the last automatic bundle
	hasBundled bool
	suppressed uint64
	// sections are extra manifest payloads registered by the simulator
	// (the SLO status and the ledger's stage table).
	sections map[string]func() any
	sectKeys []string
}

// New builds a recorder. The bundle directory is created lazily at
// first trigger.
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, errNoDir
	}
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:      cfg,
		frames:   make([]FrameContext, cfg.Frames),
		events:   make([]EventRecord, cfg.Events),
		sections: make(map[string]func() any),
	}, nil
}

// Config returns the (default-filled) configuration in force.
func (r *Recorder) Config() Config { return r.cfg }

// ObserveFrame pushes one frame's context into the ring, evicting the
// oldest beyond capacity. O(1), no allocation beyond the caller's
// context value.
func (r *Recorder) ObserveFrame(fc FrameContext) {
	r.mu.Lock()
	if r.frameN < len(r.frames) {
		r.frames[(r.frameHead+r.frameN)%len(r.frames)] = fc
		r.frameN++
	} else {
		r.frames[r.frameHead] = fc
		r.frameHead = (r.frameHead + 1) % len(r.frames)
	}
	r.mu.Unlock()
}

// RecordEvent appends one lifecycle event to the tail ring.
func (r *Recorder) RecordEvent(frame int64, payload any) {
	r.mu.Lock()
	if r.eventN < len(r.events) {
		r.events[(r.eventHead+r.eventN)%len(r.events)] = EventRecord{Frame: frame, Payload: payload}
		r.eventN++
	} else {
		r.events[r.eventHead] = EventRecord{Frame: frame, Payload: payload}
		r.eventHead = (r.eventHead + 1) % len(r.events)
	}
	r.mu.Unlock()
}

// AddManifestSection registers an extra manifest payload under key,
// resolved at bundle time (the simulator registers the SLO status and
// the stage table this way). Re-registering a key replaces it.
func (r *Recorder) AddManifestSection(key string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sections[key]; !ok {
		r.sectKeys = append(r.sectKeys, key)
	}
	r.sections[key] = fn
}

// frameWindowLocked copies out the retained frame contexts, oldest
// first. Callers hold r.mu.
func (r *Recorder) frameWindowLocked() []FrameContext {
	out := make([]FrameContext, 0, r.frameN)
	for i := 0; i < r.frameN; i++ {
		out = append(out, r.frames[(r.frameHead+i)%len(r.frames)])
	}
	return out
}

func (r *Recorder) eventTailLocked() []EventRecord {
	out := make([]EventRecord, 0, r.eventN)
	for i := 0; i < r.eventN; i++ {
		out = append(out, r.events[(r.eventHead+i)%len(r.events)])
	}
	return out
}

// Suppressed returns how many automatic triggers the cooldown swallowed.
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

// Trigger freezes the rings and writes one diagnostic bundle, returning
// its directory path. An automatic trigger (force=false) inside the
// cooldown window is suppressed and returns ("", nil); a forced trigger
// bypasses the cooldown but still counts toward retention. Write
// failures are counted (Errors) and returned.
func (r *Recorder) Trigger(frame int64, reason Reason, detail string, force bool) (string, error) {
	return r.TriggerFiles(frame, reason, detail, force, nil)
}

// Attachment is one extra payload file a trigger site ships with its
// bundle (the frame-budget profiler attaches pprof captures this way).
// Kind is the manifest Files key, Name the filename, and Fill writes
// the contents.
type Attachment struct {
	Kind string
	Name string
	Fill func(*os.File) error
}

// TriggerFiles is Trigger with extra attachment files written into the
// bundle directory and indexed in the manifest's Files map.
func (r *Recorder) TriggerFiles(frame int64, reason Reason, detail string, force bool, attachments []Attachment) (string, error) {
	r.mu.Lock()
	// Cooldown: frames since the last automatic bundle. A frame counter
	// that went backwards (a new run reusing the recorder) re-arms it.
	if !force && r.hasBundled && frame >= r.lastFrame && frame-r.lastFrame < int64(r.cfg.CooldownFrames) {
		r.suppressed++
		r.mu.Unlock()
		return "", nil
	}
	r.seq++
	seq := r.seq
	r.lastFrame = frame
	r.hasBundled = true
	snap := bundleSnapshot{
		seq:        seq,
		frame:      frame,
		reason:     reason,
		detail:     detail,
		forced:     force,
		frames:     r.frameWindowLocked(),
		events:     r.eventTailLocked(),
		suppressed: r.suppressed,
		attached:   attachments,
	}
	for _, k := range r.sectKeys {
		snap.sections = append(snap.sections, manifestSection{key: k, fn: r.sections[k]})
	}
	r.mu.Unlock()

	dir, err := r.writeBundle(snap)
	if err != nil {
		r.count(&r.errors)
		return "", err
	}
	r.count(&r.written)
	r.enforceRetention()
	return dir, nil
}
