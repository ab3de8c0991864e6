package dtrace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refRecorder is the naive model the Recorder must agree with: it keeps
// every event ever recorded and every frame's certificate and notes, and
// answers queries from the last capacity events and the last certCap
// frames.
type refRecorder struct {
	capacity, certCap int
	frame             int // the SetFrame clock
	newest            int // the newest frame holding a certificate or note
	events            []entry
	certs             map[int]*Certificate
	notes             map[int][]string
}

func (m *refRecorder) record(reqID int, e Event) {
	if e.Frame == 0 {
		e.Frame = m.frame
	}
	e.Seq = uint64(len(m.events) + 1)
	m.events = append(m.events, entry{reqID, e})
}

func (m *refRecorder) retained() []entry {
	return m.events[max(0, len(m.events)-m.capacity):]
}

func (m *refRecorder) touch(frame int) { m.newest = max(m.newest, frame) }

func (m *refRecorder) kept(frame int) bool { return frame > m.newest-m.certCap }

func (m *refRecorder) trace(reqID int) (Trace, bool) {
	t := Trace{RequestID: reqID}
	for _, en := range m.retained() {
		if en.reqID == reqID {
			t.Events = append(t.Events, en.ev)
		}
	}
	return t, len(t.Events) > 0
}

func (m *refRecorder) snapshot() []Trace {
	out := []Trace{}
	seen := map[int]bool{}
	for _, en := range m.retained() {
		if !seen[en.reqID] {
			seen[en.reqID] = true
			t, _ := m.trace(en.reqID)
			out = append(out, t)
		}
	}
	return out
}

func (m *refRecorder) certificate(frame int) (Certificate, bool) {
	c, ok := m.certs[frame]
	if !ok || !m.kept(frame) {
		return Certificate{}, false
	}
	out := *c
	out.Violations = append([]BlockingPair(nil), c.Violations...)
	out.Notes = append(append([]string(nil), c.Notes...), m.notes[frame]...)
	return out, true
}

func (m *refRecorder) certifiedFrames() []int {
	var frames []int
	for f := 0; f <= m.newest; f++ {
		if _, ok := m.certs[f]; ok && m.kept(f) {
			frames = append(frames, f)
		}
	}
	return frames
}

func (m *refRecorder) stats() Stats {
	n := uint64(len(m.events))
	return Stats{
		Events:       n,
		Evicted:      n - uint64(len(m.retained())),
		Certificates: len(m.certifiedFrames()),
	}
}

// TestRecorderMatchesModel drives a Recorder and refRecorder through the
// same random interleavings of Record, Lifecycle, AddFrameNote,
// PutCertificate and SetFrame, and compares every query after every
// step. Frames advance one at a time and each frame holds a certificate
// or a note before the next begins, as in the simulator, which commits
// one certificate (or a note saying why there is none) per frame. The
// small configurations wrap both rings many times over; the large one
// never wraps.
func TestRecorderMatchesModel(t *testing.T) {
	for _, cfg := range []struct {
		capacity, certCap, steps int
		wraps                    bool
	}{{3, 2, 400, true}, {7, 3, 800, true}, {16, 5, 800, true}, {4096, 1024, 300, false}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d_cert%d_seed%d", cfg.capacity, cfg.certCap, seed), func(t *testing.T) {
				m := checkAgainstModel(t, rand.New(rand.NewSource(seed)), cfg.capacity, cfg.certCap, cfg.steps)
				if wrapped := m.stats().Evicted > 0 && m.newest >= 2*cfg.certCap; wrapped != cfg.wraps {
					t.Fatalf("rings wrapped = %v, want %v: %+v, newest frame %d", wrapped, cfg.wraps, m.stats(), m.newest)
				}
			})
		}
	}
}

// checkAgainstModel runs steps random operations on a Recorder and its
// model, failing at the first query they disagree on, and returns the
// model.
func checkAgainstModel(t *testing.T, rng *rand.Rand, capacity, certCap, steps int) *refRecorder {
	r := New(capacity)
	r.slots = make([]frameSlot, certCap)
	m := &refRecorder{capacity: capacity, certCap: certCap, newest: -1,
		certs: map[int]*Certificate{}, notes: map[int][]string{}}
	touched := false
	note := func(frame int) {
		n := fmt.Sprintf("note %d", rng.Intn(100))
		r.AddFrameNote(frame, n)
		m.notes[frame] = append(m.notes[frame], n)
		m.touch(frame)
	}
	certify := func(frame int) {
		c := &Certificate{Frame: frame, Stable: rng.Intn(2) == 0, Requests: rng.Intn(9)}
		if !c.Stable {
			c.Violations = []BlockingPair{{RequestID: rng.Intn(5), TaxiID: rng.Intn(5)}}
		}
		if rng.Intn(3) == 0 {
			c.Notes = []string{"certificate note"}
		}
		r.PutCertificate(c)
		m.certs[frame] = c
		m.touch(frame)
	}
	for step := 0; step < steps; step++ {
		reqID := rng.Intn(6)
		switch op := rng.Intn(10); {
		case op < 4:
			e := Ev([]Kind{KindPropose, KindCandidates, KindDisplaced}[rng.Intn(3)])
			e.TaxiID = rng.Intn(20)
			if rng.Intn(3) == 0 {
				e.Frame = 1 + rng.Intn(m.frame+1)
			}
			if rng.Intn(4) == 0 {
				e.Members = []int{reqID, reqID + 1}
			}
			r.Record(reqID, e)
			m.record(reqID, e)
		case op < 6:
			frame := []int{0, m.frame}[rng.Intn(2)]
			kind := []Kind{"request", "assign", "pickup", "requeue"}[rng.Intn(4)]
			taxi := rng.Intn(20) - 1
			r.Lifecycle(reqID, frame, taxi, kind)
			e := Ev(kind)
			e.Frame, e.TaxiID = frame, taxi
			m.record(reqID, e)
		case op < 7:
			note(m.frame)
			touched = true
		case op < 8:
			certify(m.frame)
			touched = true
		default:
			if !touched {
				if rng.Intn(4) == 0 {
					note(m.frame)
				} else {
					certify(m.frame)
				}
			}
			m.frame++
			r.SetFrame(m.frame)
			touched = false
		}

		for id := -1; id <= 6; id++ {
			got, gotOK := r.Trace(id)
			want, wantOK := m.trace(id)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Trace(%d) = %+v, %v; model %+v, %v", step, id, got, gotOK, want, wantOK)
			}
		}
		if got, want := r.Snapshot(), m.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Snapshot = %+v; model %+v", step, got, want)
		}
		for f := max(0, m.frame-2*certCap); f <= m.frame+1; f++ {
			got, gotOK := r.Certificate(f)
			want, wantOK := m.certificate(f)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Certificate(%d) = %+v, %v; model %+v, %v", step, f, got, gotOK, want, wantOK)
			}
		}
		if got, want := r.CertifiedFrames(), m.certifiedFrames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: CertifiedFrames = %v; model %v", step, got, want)
		}
		if got, want := r.Stats(), m.stats(); got != want {
			t.Fatalf("step %d: Stats = %+v; model %+v", step, got, want)
		}
	}
	return m
}
