package dtrace

import (
	"encoding/json"
	"io"
	"strconv"
)

// Chrome trace-event export: renders a recorder snapshot as the JSON
// array format understood by chrome://tracing and Perfetto
// (https://ui.perfetto.dev). Each request becomes one track (tid);
// decision events render as instants and the request's waiting /
// en-route / riding lifecycle phases render as duration slices, with
// one simulated frame mapped to one millisecond of trace time so a
// day-long run spans a readable ~1.4 s timeline.

// frameMicros is the trace-time width of one simulation frame in µs.
const frameMicros = 1000

// chromeEvent is one entry of the trace-event array. Field names are
// fixed by the format: ph is the phase ("X" complete, "i" instant,
// "M" metadata), ts/dur are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders every retained trace of the recorder as a
// Chrome trace-event JSON array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "stabledispatch"},
	}}
	// The first and last sequence number of each frame spread the
	// frame's instants over its millisecond.
	traces := r.Snapshot()
	seqs := map[int][2]uint64{}
	for _, t := range traces {
		for _, e := range t.Events {
			s, ok := seqs[e.Frame]
			if !ok {
				s = [2]uint64{e.Seq, e.Seq}
			}
			seqs[e.Frame] = [2]uint64{min(s[0], e.Seq), max(s[1], e.Seq)}
		}
	}
	for _, t := range traces {
		events = append(events, chromeEvents(t, seqs)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// chromeEvents renders one request's trace: lifecycle phases as "X"
// slices plus every decision event as an "i" instant. A frame's
// instants, on every track, are spread over its millisecond in
// sequence order, so causal order survives the frame→millisecond
// quantisation however many events the frame holds.
func chromeEvents(t Trace, seqs map[int][2]uint64) []chromeEvent {
	out := []chromeEvent{{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: t.RequestID,
		Args: map[string]any{"name": "request " + strconv.Itoa(t.RequestID)},
	}}

	// Lifecycle phase boundaries, in frame time.
	type boundary struct {
		frame int
		kind  Kind
	}
	var marks []boundary
	for _, e := range t.Events {
		s := seqs[e.Frame]
		ts := float64(e.Frame)*frameMicros + float64(e.Seq-s[0])*frameMicros/float64(s[1]-s[0]+1)
		args := map[string]any{"frame": e.Frame}
		if e.TaxiID >= 0 {
			args["taxi"] = e.TaxiID
		}
		if e.ReqRank >= 0 {
			args["reqRank"] = e.ReqRank
		}
		if e.TaxiRank >= 0 {
			args["taxiRank"] = e.TaxiRank
		}
		if e.RivalID >= 0 {
			args["rival"] = e.RivalID
		}
		if e.Outcome != "" {
			args["outcome"] = e.Outcome
		}
		if d := e.Detail(); d != "" {
			args["detail"] = d
		}
		if len(e.Members) > 0 {
			args["members"] = e.Members
		}
		out = append(out, chromeEvent{
			Name: string(e.Kind), Cat: "decision", Ph: "i", Scope: "t",
			Ts: ts, Pid: 1, Tid: t.RequestID, Args: args,
		})
		switch e.Kind {
		case "request", "assign", "pickup", "dropoff", "abandon", "cancel", "requeue":
			marks = append(marks, boundary{e.Frame, e.Kind})
		}
	}

	// Slices between consecutive lifecycle boundaries: request→assign is
	// "waiting", assign→pickup "en-route", pickup→dropoff "riding"; a
	// requeue reopens "waiting". Terminal abandons/cancels close the
	// open phase.
	phase := map[Kind]string{
		"request": "waiting", "requeue": "waiting",
		"assign": "en-route", "pickup": "riding",
	}
	for k := 0; k < len(marks); k++ {
		name, ok := phase[marks[k].kind]
		if !ok || k+1 >= len(marks) {
			continue
		}
		dur := float64(marks[k+1].frame-marks[k].frame) * frameMicros
		if dur <= 0 {
			// Same-frame transitions still get a sliver of width so the
			// slice is visible.
			dur = frameMicros / 4
		}
		out = append(out, chromeEvent{
			Name: name, Cat: "lifecycle", Ph: "X",
			Ts:  float64(marks[k].frame) * frameMicros,
			Dur: dur, Pid: 1, Tid: t.RequestID,
		})
	}
	return out
}
