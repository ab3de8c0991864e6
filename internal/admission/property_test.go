package admission

import (
	"errors"
	"math/rand"
	"testing"
)

// TestLedgerStateMachineProperty drives random interleavings of Admit,
// TakeBatch, NoteAssigned, NoteRequeued, NoteTerminal,
// NoteInjectFailure and BeginDrain against a model of the controller.
// After every step Inflight equals admitted minus terminal (admitted
// counts NoteRequeued re-activations of settled requests too), the
// accessors match the model, and the rendered admission_* series equal
// the accessors. Once every admitted request is terminal, nothing is in
// flight.
func TestLedgerStateMachineProperty(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		queueCap, maxInflight := 1+rng.Intn(6), rng.Intn(10)
		c := New(Config{QueueCap: queueCap, MaxInflight: maxInflight})
		var (
			admitted, terminal int
			accepted, shed     int
			queued             int
			waits, injectFails int
			draining           bool
			ids                []int
			live               = make(map[int]bool) // in flight
			observed           = make(map[int]bool) // wait already observed
		)
		// pick returns a known ID, or now and then one never admitted.
		pick := func() int {
			if len(ids) == 0 || rng.Intn(8) == 0 {
				return 1 << 20
			}
			return ids[rng.Intn(len(ids))]
		}
		settle := func(id int) {
			if live[id] {
				delete(live, id)
				delete(observed, id)
				terminal++
			}
		}
		for step := 0; step < 300; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 30:
				op = "Admit"
				var want Reason
				switch {
				case draining:
					want = ReasonDraining
				case queued >= queueCap:
					want = ReasonQueueFull
				case maxInflight > 0 && len(live) >= maxInflight:
					want = ReasonInflight
				}
				id, err := c.Admit(req(0))
				var se *ShedError
				switch {
				case want == "" && err != nil:
					t.Fatalf("seed %d step %d: Admit shed (%v), want accepted", seed, step, err)
				case want == "":
					accepted++
					admitted++
					queued++
					ids = append(ids, id)
					live[id] = true
				case !errors.As(err, &se) || se.Reason != want:
					t.Fatalf("seed %d step %d: Admit err = %v, want a %s shed", seed, step, err, want)
				default:
					shed++
				}
			case k < 45:
				op = "TakeBatch"
				if got := len(c.TakeBatch()); got != queued {
					t.Fatalf("seed %d step %d: TakeBatch took %d, want %d", seed, step, got, queued)
				}
				queued = 0
			case k < 62:
				op = "NoteAssigned"
				id := pick()
				c.NoteAssigned(id)
				if live[id] && !observed[id] {
					observed[id] = true
					waits++
				}
			case k < 72:
				op = "NoteRequeued"
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				c.NoteRequeued(id)
				if !live[id] {
					live[id] = true
					admitted++
				}
				delete(observed, id)
			case k < 92:
				op = "NoteTerminal"
				id := pick()
				c.NoteTerminal(id)
				settle(id)
			case k < 98:
				op = "NoteInjectFailure"
				id := pick()
				c.NoteInjectFailure(id)
				injectFails++
				settle(id)
			default:
				op = "BeginDrain"
				c.BeginDrain()
				draining = true
			}

			if got, want := c.Inflight(), admitted-terminal; got != want || got != len(live) {
				t.Fatalf("seed %d step %d (%s): Inflight = %d, want admitted-terminal = %d (model %d)",
					seed, step, op, got, want, len(live))
			}
			if c.Accepted() != accepted || c.Shed() != shed || c.QueueDepth() != queued || c.Draining() != draining {
				t.Fatalf("seed %d step %d (%s): accessors accepted=%d shed=%d queue=%d draining=%v, want %d %d %d %v",
					seed, step, op, c.Accepted(), c.Shed(), c.QueueDepth(), c.Draining(), accepted, shed, queued, draining)
			}
			m := rendered(t, c)
			shedSeries := m[`admission_shed_total{reason="queue_full"}`] +
				m[`admission_shed_total{reason="inflight_cap"}`] + m[`admission_shed_total{reason="draining"}`]
			if m["admission_accepted_total"] != float64(c.Accepted()) || shedSeries != float64(c.Shed()) ||
				m["admission_queue_depth"] != float64(c.QueueDepth()) ||
				m["admission_inject_failures_total"] != float64(injectFails) ||
				m["admission_wait_seconds_count"] != float64(waits) {
				t.Fatalf("seed %d step %d (%s): rendered %v disagrees with accessors (accepted %d shed %d queue %d) or model (inject failures %d, waits %d)",
					seed, step, op, m, c.Accepted(), c.Shed(), c.QueueDepth(), injectFails, waits)
			}
		}

		for id := range live {
			c.NoteTerminal(id)
		}
		if got := c.Inflight(); got != 0 {
			t.Fatalf("seed %d: Inflight = %d after every admitted request went terminal", seed, got)
		}
	}
}
