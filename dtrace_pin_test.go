package stabledispatch

// Decision-trace byte pin: the Chrome trace of a seeded quick-scale
// Boston run under seeded faults, for each traced dispatcher family,
// must reproduce these SHA-256 digests exactly. The trace carries every
// event's rendered sentence, so a change in any wording, number format
// or event order shows here.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

func TestTracedQuickScaleChromeDigests(t *testing.T) {
	cases := []struct{ algo, sha string }{
		{"nstd-p", "67f016472d1a9e748d09b4b2aac058555b9d7beaec2d368403784364950e96fe"},
		{"nstd-t", "441a3fb8529f5e92e9c978a7d9e72f6392e4e060aae74aad466970a43b50307a"},
		{"std-p", "39d123071e6d4363c12c22f07de938a9761b47aa1db7d64895a8bae70ece2592"},
		{"std-t", "5020f2a9b86a19ba4a7277ecde17883b860e14ac68c804bb5e2f1b8134eb9c3e"},
		{"ilp", "7c521d6e010167e4fce528d9054a706a3b8382c4e8ce9993b3396bf483535841"},
	}
	// seen collects every (kind, outcome) the runs recorded.
	seen := map[[2]string]bool{}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			rec := dtrace.New(0)
			runFaultedTraced(t, tc.algo, rec)
			for _, tr := range rec.Snapshot() {
				for _, e := range tr.Events {
					seen[[2]string{string(e.Kind), e.Outcome}] = true
				}
			}
			var buf bytes.Buffer
			if err := rec.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("chrome trace sha256 = %s, want %s", got, tc.sha)
			}
			if n := chromeInversions(t, buf.Bytes()); n != 0 {
				t.Errorf("%d instants render before an earlier event of their track", n)
			}
		})
	}
	for _, k := range [][2]string{
		{"candidates", "acceptable"}, {"candidates", "no_acceptable_taxi"},
		{"propose", "accepted"}, {"propose", "displaced"}, {"propose", "refused"}, {"propose", "exhausted"},
		{"propose", "upgraded"}, {"propose", "refused_taxi"}, {"displaced", "displaced"},
		{"group_formed", "feasible"}, {"group_rejected", "no_savings"}, {"pack_pick", "packed"},
		{"request", ""}, {"assign", ""}, {"pickup", ""}, {"dropoff", ""},
		{"abandon", ""}, {"cancel", ""}, {"requeue", ""}, {"rescue", ""},
	} {
		if !seen[k] {
			t.Errorf("no %s event with outcome %q recorded; the pins do not cover its sentence", k[0], k[1])
		}
	}
}

// runFaultedTraced runs the quick-scale Boston workload with algo under
// seeded breakdowns and passenger and driver cancellations, with a
// three-frame patience so requests also abandon, recording into rec.
func runFaultedTraced(t *testing.T, algo string, rec *dtrace.Recorder) {
	t.Helper()
	o := exp.QuickOptions()
	reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 200, o)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	d, err := exp.Dispatcher(algo, o.Theta)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := fault.New(fault.Config{Seed: 7, BreakdownRate: 0.02, DriverCancelRate: 0.1, PassengerCancelRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		Params:         o.Params,
		Dispatcher:     d,
		PatienceFrames: 3,
		Workers:        o.Workers,
		Faults:         faults,
		Tracer:         rec,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// chromeInversions counts the instants of a Chrome trace whose
// timestamp is below that of an instant emitted before them on the same
// track. Each track's instants are emitted in recording order.
func chromeInversions(t *testing.T, data []byte) int {
	t.Helper()
	var events []struct {
		Ph  string  `json:"ph"`
		Ts  float64 `json:"ts"`
		Tid int     `json:"tid"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	last := map[int]float64{}
	n := 0
	for _, e := range events {
		if e.Ph != "i" {
			continue
		}
		if prev, ok := last[e.Tid]; ok && e.Ts < prev {
			n++
		}
		last[e.Tid] = e.Ts
	}
	return n
}
