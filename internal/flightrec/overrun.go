package flightrec

import (
	"encoding/json"
	"fmt"
	"io"

	"stabledispatch/internal/prof"
)

// OverrunCapture is the profile.json payload of an overrun bundle: the
// triggering frame's attribution plus the capture parameters.
type OverrunCapture struct {
	Schema   string `json:"schema"`
	BudgetNs int64  `json:"budgetNs"`
	Frames   int    `json:"captureFrames"`
	// Suppressed counts overruns the profiler's own cooldown swallowed
	// since the previous capture (distinct from the recorder's).
	Suppressed int64            `json:"suppressed"`
	Trigger    prof.FrameReport `json:"trigger"`
}

// OverrunCaptureSchema versions profile.json.
const OverrunCaptureSchema = "prof-capture/v1"

// TriggerOverrun freezes one finalised overrun capture into a bundle:
// manifest reason frame_overrun, the registered contents as usual, plus
// profile.json (attribution), cpu.pprof (absent when a live
// /debug/pprof session owned the profiler), and the heap_pre/heap pair
// bracketing the capture.
//
// The trigger is forced: the profiler's CooldownFrames is the single
// rate limiter for overrun bundles, so its "exactly one capture per
// cooldown" guarantee survives recorder cooldown interleaving with
// other trigger classes (see DESIGN.md).
func (r *Recorder) TriggerOverrun(c prof.Capture) (string, error) {
	report := c.Trigger.Report()
	stage, share := c.Trigger.Dominant()
	detail := fmt.Sprintf("frame %d ran %.2fms against a %.2fms budget",
		c.Trigger.Frame, float64(c.Trigger.WallNs)/1e6, float64(c.BudgetNs)/1e6)
	if stage != "" {
		detail += fmt.Sprintf("; %.0f%% in %s", share*100, stage)
	}
	files := []Attachment{{
		Kind: "profile",
		Name: "profile.json",
		Fill: func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(OverrunCapture{
				Schema:     OverrunCaptureSchema,
				BudgetNs:   c.BudgetNs,
				Frames:     c.Frames,
				Suppressed: c.Suppressed,
				Trigger:    report,
			})
		},
	}}
	files = append(files, rawAttachment("heap_pre", "heap_pre.pprof", c.HeapPre)...)
	files = append(files, rawAttachment("heap", "heap.pprof", c.Heap)...)
	files = append(files, rawAttachment("cpu", "cpu.pprof", c.CPU)...)
	return r.TriggerFiles(c.Trigger.Frame, ReasonOverrun, detail, true, files)
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
