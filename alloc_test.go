package stabledispatch

import (
	"runtime"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

// frameBytes steps a seeded New York morning under d on one worker and
// returns the bytes allocated per frame over frames 420–599, and how
// many frames that average covers.
func frameBytes(t *testing.T, d sim.Dispatcher) (float64, int) {
	t.Helper()
	o := exp.DefaultOptions()
	o.Seed = 1
	o.Frames = 600
	reqs, taxis, err := exp.Workload(trace.NewYork(), 46600, 700, o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{Params: o.Params, Dispatcher: d, PatienceFrames: o.PatienceMinutes, Workers: 1}, taxis, reqs)
	if err != nil {
		t.Fatal(err)
	}
	const warm = 420 // the queue builds toward the morning peak
	for s.Frame() < warm {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	frames := 0
	for s.Frame() < o.Frames {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(frames), frames
}

// maxNSTDPFrameBytes bounds the bytes an NSTD-P frame allocates at the
// New York morning peak once the simulator's frame storage has grown:
// each frame builds its views, idle fleet, §IV-A plane, market and
// matching into the last frame's, leaving the assignments and the
// commit. Building every frame from scratch allocates about 490 KB here
// (about 34 KB recycled; 2-vCPU x86-64 VM, Go 1.24).
const maxNSTDPFrameBytes = 128 << 10

// TestNSTDPFrameAllocations pins the per-frame allocation of NSTD-P on
// a seeded New York morning, measured with runtime.MemStats over the
// peak's frames after the queue has built up.
func TestNSTDPFrameAllocations(t *testing.T) {
	perFrame, frames := frameBytes(t, dispatch.NewNSTDP())
	t.Logf("%.0f bytes per frame over %d frames", perFrame, frames)
	if perFrame > maxNSTDPFrameBytes {
		t.Errorf("NSTD-P allocates %.0f bytes per steady-state frame, want at most %d: is a frame's storage no longer reused?", perFrame, maxNSTDPFrameBytes)
	}
}

// maxSTDPFrameBytes bounds the bytes an STD-P frame allocates at the
// same New York morning peak once the frame storage has grown: each
// frame builds its request plane, unit taxi rows, units, unit market
// and matching into the last frame's, leaving the feasible groups, the
// set packing, the assignments and the commit. Building the sharing
// path from scratch allocates about 710 KB per frame here; recycled it
// is about 82 KB (2-vCPU x86-64 VM, Go 1.24).
const maxSTDPFrameBytes = 160 << 10

// TestSTDPFrameAllocations pins the per-frame allocation of STD-P on
// the seeded New York morning of TestNSTDPFrameAllocations.
func TestSTDPFrameAllocations(t *testing.T) {
	perFrame, frames := frameBytes(t, dispatch.NewSTDP(share.DefaultPackConfig()))
	t.Logf("%.0f bytes per frame over %d frames", perFrame, frames)
	if perFrame > maxSTDPFrameBytes {
		t.Errorf("STD-P allocates %.0f bytes per steady-state frame, want at most %d: is a frame's storage no longer reused?", perFrame, maxSTDPFrameBytes)
	}
}
