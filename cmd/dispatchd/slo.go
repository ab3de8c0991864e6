package main

// SLO and flight-recorder surfaces: GET /v1/slo exposes the engine's
// per-objective alert table, POST /v1/debug/bundle forces a diagnostic
// bundle out of the flight recorder, and /healthz carries the worst
// alert state so load balancers see a breach without parsing the table.

import (
	"fmt"
	"net/http"

	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/slo"
)

// sloOut is the /v1/slo payload.
type sloOut struct {
	Enabled    bool         `json:"enabled"`
	Objectives []slo.Status `json:"objectives"`
}

func (s *server) getSLO(w http.ResponseWriter, _ *http.Request) {
	eng := s.sim.SLO()
	if eng == nil {
		writeJSON(w, http.StatusOK, sloOut{Enabled: false, Objectives: []slo.Status{}})
		return
	}
	writeJSON(w, http.StatusOK, sloOut{Enabled: true, Objectives: eng.Status()})
}

// sloHealth condenses the alert table for /healthz: the worst state
// plus the counts a dashboard needs at a glance.
type sloHealth struct {
	// State is the worst objective state (breach > warning > recovered
	// > ok).
	State     slo.State `json:"state"`
	Breaching int       `json:"breaching"`
	Warning   int       `json:"warning"`
	Total     int       `json:"total"`
}

// sloHealthOut summarises the engine's status, or nil when no SLO file
// is loaded.
func (s *server) sloHealthOut() *sloHealth {
	eng := s.sim.SLO()
	if eng == nil {
		return nil
	}
	sts := eng.Status()
	out := &sloHealth{State: slo.StateOK, Total: len(sts)}
	rank := func(st slo.State) int {
		switch st {
		case slo.StateBreach:
			return 3
		case slo.StateWarning:
			return 2
		case slo.StateRecovered:
			return 1
		}
		return 0
	}
	for _, st := range sts {
		switch st.State {
		case slo.StateBreach:
			out.Breaching++
		case slo.StateWarning:
			out.Warning++
		}
		if rank(st.State) > rank(out.State) {
			out.State = st.State
		}
	}
	return out
}

type bundleIn struct {
	// Detail is an optional operator note carried into the manifest.
	Detail string `json:"detail"`
}

type bundleOut struct {
	Path string `json:"path"`
}

// postBundle forces one diagnostic bundle (bypassing the trigger
// cooldown, not the retention cap). 503 when no flight recorder is
// configured.
func (s *server) postBundle(w http.ResponseWriter, r *http.Request) {
	rec := s.sim.Recorder()
	if rec == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("flight recorder disabled: start with -bundle-dir"))
		return
	}
	var in bundleIn
	if r.ContentLength != 0 {
		if code, err := decodeBody(r, &in); code != 0 {
			writeError(w, code, fmt.Errorf("decode bundle request: %w", err))
			return
		}
	}
	detail := in.Detail
	if detail == "" {
		detail = "operator-requested bundle"
	}
	s.mu.Lock()
	frame := s.sim.Frame()
	s.mu.Unlock()
	path, err := rec.Trigger(int64(frame), flightrec.ReasonManual, detail, true)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, bundleOut{Path: path})
}
