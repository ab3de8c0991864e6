package main

import (
	"net/http"
	"testing"

	"stabledispatch/internal/prof"
)

// TestProfileEndpoint drives frames with the simulator's cost ledger
// and checks GET /v1/profile serves a consistent attribution: the
// summary frame count matches the frames run, every retained slow
// frame's attributed stage time stays within its wall-clock, and the
// rolling stage distributions are present.
func TestProfileEndpoint(t *testing.T) {
	ts := ledgerServer(t, prof.New(prof.Config{TopN: 16}))
	postJSON(t, ts.URL+"/v1/requests", requestIn{
		Pickup:  pointJSON{X: 10.5, Y: 10},
		Dropoff: pointJSON{X: 12, Y: 10},
	})
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 3})

	resp, err := http.Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[profileOut](t, resp)
	if !out.Enabled {
		t.Fatal("ledger installed but profile reports enabled=false")
	}
	if out.Summary == nil || out.Summary.Frames != 3 {
		t.Fatalf("summary = %+v, want 3 frames", out.Summary)
	}
	if len(out.TopFrames) != 3 {
		t.Fatalf("topFrames = %d, want 3 (TopN exceeds run length)", len(out.TopFrames))
	}
	for i, fr := range out.TopFrames {
		if fr.StageSumNs > fr.WallNs {
			t.Errorf("frame %d: stage sum %dns exceeds wall %dns", fr.Frame, fr.StageSumNs, fr.WallNs)
		}
		if i > 0 && fr.WallNs > out.TopFrames[i-1].WallNs {
			t.Errorf("topFrames not sorted slowest-first at index %d", i)
		}
	}
	if len(out.Stages) == 0 {
		t.Fatal("no rolling stage distributions")
	}
	seen := make(map[string]bool, len(out.Stages))
	for _, st := range out.Stages {
		seen[st.Stage] = true
	}
	for _, want := range []string{"idle_scan", "matching"} {
		if !seen[want] {
			t.Errorf("stage %q missing from rolling distributions (got %v)", want, out.Stages)
		}
	}
}

// TestProfileEndpointWithoutLedger checks the endpoint degrades to an
// empty stage list when the simulator has no ledger.
func TestProfileEndpointWithoutLedger(t *testing.T) {
	ts := ledgerServer(t, nil)
	postJSON(t, ts.URL+"/v1/tick", tickIn{Frames: 1})
	resp, err := http.Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decode[profileOut](t, resp)
	if out.Enabled || out.Summary != nil || out.TopFrames != nil {
		t.Fatalf("ledger sections present without a ledger: %+v", out)
	}
	if out.Stages == nil {
		t.Fatal("stages must be [] even without a ledger")
	}
}
