package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"stabledispatch/internal/prof"
)

// OverrunCapture is the profile.json payload of an overrun bundle: the
// triggering frame's attribution plus the capture parameters.
type OverrunCapture struct {
	Schema   string `json:"schema"`
	BudgetNs int64  `json:"budgetNs"`
	// Frames is how many frames the CPU profile spans: CaptureFrames,
	// or fewer when the run ended first (Close).
	Frames  int              `json:"captureFrames"`
	Trigger prof.FrameReport `json:"trigger"`
}

// OverrunCaptureSchema versions profile.json.
const OverrunCaptureSchema = "prof-capture/v1"

// capture is a running overrun capture: admitted at its trigger frame,
// it counts the frames its CPU profile spans.
type capture struct {
	bundle
	trigger   prof.FrameProfile
	budgetNs  int64
	frames    int
	cpu       bytes.Buffer
	cpuActive bool
	heapPre   []byte
}

// Observe hands the recorder one sealed frame of its simulator's
// ledger. An overrun frame is a frame_overrun trigger under the one
// rate limit: admitted, it takes the cooldown slot and the bundle
// sequence number at its own frame, snapshots the heap and starts the
// CPU profile. The capture then spans CaptureFrames more frames, after
// which Observe writes its bundle: profile.json (attribution), cpu.pprof
// (absent when the process-wide CPU profiler was busy, e.g. a live
// /debug/pprof session), the heap_pre/heap pair bracketing the capture,
// and the registered contents. It returns that bundle's path on the
// frame that writes it, else "".
func (r *Recorder) Observe(p prof.FrameProfile, budgetNs int64) (string, error) {
	r.mu.Lock()
	c := r.capture
	if c == nil {
		if p.Overrun {
			r.startCapture(p, budgetNs)
		}
		r.mu.Unlock()
		return "", nil
	}
	if p.Overrun {
		// Overruns during a capture are part of its evidence, and the
		// rate limit's to count.
		r.suppressed++
	}
	c.frames++
	if c.frames < r.cfg.CaptureFrames {
		r.mu.Unlock()
		return "", nil
	}
	r.capture = nil
	r.mu.Unlock()
	return r.finishCapture(c)
}

// Close writes a capture still running when its run ends as a short
// bundle over the frames profiled so far, and releases the CPU
// profiler. The owner of a run calls it once the run is over.
func (r *Recorder) Close() error {
	r.mu.Lock()
	c := r.capture
	r.capture = nil
	r.mu.Unlock()
	if c == nil {
		return nil
	}
	_, err := r.finishCapture(c)
	return err
}

// startCapture admits overrun frame p and, if the rate limit lets it
// through, starts its capture. Called under r.mu, so no other trigger
// slips in before the capture is running.
func (r *Recorder) startCapture(p prof.FrameProfile, budgetNs int64) {
	b, ok := r.admit(p.Frame, ReasonOverrun, "")
	if !ok {
		return
	}
	b.trigger.Detail = fmt.Sprintf("frame %d ran %v against a %v budget",
		p.Frame, time.Duration(p.WallNs), time.Duration(budgetNs))
	if stage, share := p.Dominant(); stage != "" {
		b.trigger.Detail += fmt.Sprintf("; %.0f%% in %s", share*100, stage)
	}
	c := &capture{bundle: b, trigger: p, budgetNs: budgetNs, heapPre: heapProfile()}
	c.cpuActive = pprof.StartCPUProfile(&c.cpu) == nil
	r.capture = c
}

// finishCapture stops the CPU profile, snapshots the heap again and
// writes the capture's bundle. Called off r.mu: the heap profile walks
// the whole heap.
func (r *Recorder) finishCapture(c *capture) (string, error) {
	var cpu []byte
	if c.cpuActive {
		pprof.StopCPUProfile()
		cpu = c.cpu.Bytes()
	}
	report := OverrunCapture{
		Schema:   OverrunCaptureSchema,
		BudgetNs: c.budgetNs,
		Frames:   c.frames,
		Trigger:  c.trigger.Report(),
	}
	files := []Attachment{{Kind: "profile", Name: "profile.json", Fill: func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}}}
	files = append(files, rawAttachment("heap_pre", "heap_pre.pprof", c.heapPre)...)
	files = append(files, rawAttachment("heap", "heap.pprof", heapProfile())...)
	files = append(files, rawAttachment("cpu", "cpu.pprof", cpu)...)
	return r.write(c.bundle, files)
}

// heapProfile renders the current heap profile in pprof protobuf
// format. A pre/post pair brackets a capture so the allocation delta is
// recoverable offline (`go tool pprof -base heap_pre.pprof heap.pprof`).
func heapProfile() []byte {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil
	}
	return buf.Bytes()
}

// rawAttachment wraps a byte payload as an attachment; empty payloads
// attach nothing.
func rawAttachment(kind, name string, data []byte) []Attachment {
	if len(data) == 0 {
		return nil
	}
	return []Attachment{{Kind: kind, Name: name, Fill: func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}}}
}
