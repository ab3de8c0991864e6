package admission

import (
	"errors"
	"math/rand"
	"testing"
)

// TestLedgerStateMachineProperty drives random interleavings of Admit,
// TakeBatch, Withdraw, Settle, NoteInjectFailure and BeginDrain against
// a model of the controller. Settle reports a random number of the
// simulator's requests still unfinished, never more than it was handed.
// After every step Inflight equals the queue plus the simulator's
// unfinished count, every admitted request is queued, withdrawn or
// taken, the accessors match the model, and the rendered admission_*
// series equal the accessors, one queue-wait observation per request
// taken. Once the queue is empty and the simulator settles to zero,
// nothing is in flight.
func TestLedgerStateMachineProperty(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		queueCap, maxInflight := 1+rng.Intn(6), rng.Intn(10)
		c := New(Config{QueueCap: queueCap, MaxInflight: maxInflight})
		var (
			accepted, shed     int
			taken, withdrawn   int
			inSim, injectFails int
			draining           bool
			queue              []int // queued IDs in admission order
		)
		for step := 0; step < 300; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 35:
				op = "Admit"
				var want Reason
				switch {
				case draining:
					want = ReasonDraining
				case len(queue) >= queueCap:
					want = ReasonQueueFull
				case maxInflight > 0 && len(queue)+inSim >= maxInflight:
					want = ReasonInflight
				}
				id, err := c.Admit(req(0))
				var se *ShedError
				switch {
				case want == "" && err != nil:
					t.Fatalf("seed %d step %d: Admit shed (%v), want accepted", seed, step, err)
				case want == "":
					accepted++
					queue = append(queue, id)
				case !errors.As(err, &se) || se.Reason != want:
					t.Fatalf("seed %d step %d: Admit err = %v, want a %s shed", seed, step, err, want)
				default:
					shed++
				}
			case k < 50:
				op = "TakeBatch"
				batch := c.TakeBatch()
				if len(batch) != len(queue) {
					t.Fatalf("seed %d step %d: TakeBatch took %d, want %d", seed, step, len(batch), len(queue))
				}
				for i, r := range batch {
					if r.ID != queue[i] {
						t.Fatalf("seed %d step %d: batch[%d] = %d, want %d", seed, step, i, r.ID, queue[i])
					}
				}
				taken += len(queue)
				inSim += len(queue)
				queue = queue[:0]
			case k < 60:
				op = "Withdraw"
				id := 1 << 20 // never admitted
				if len(queue) > 0 && rng.Intn(4) > 0 {
					id = queue[rng.Intn(len(queue))]
				}
				_, ok := c.Withdraw(id)
				i := indexOf(queue, id)
				if ok != (i >= 0) {
					t.Fatalf("seed %d step %d: Withdraw(%d) = %v, want %v", seed, step, id, ok, i >= 0)
				}
				if ok {
					queue = append(queue[:i], queue[i+1:]...)
					withdrawn++
				}
			case k < 92:
				op = "Settle"
				inSim = rng.Intn(inSim + 1)
				c.Settle(inSim)
			case k < 98:
				op = "NoteInjectFailure"
				c.NoteInjectFailure()
				injectFails++
			default:
				op = "BeginDrain"
				c.BeginDrain()
				draining = true
			}

			if got := c.Inflight(); got != len(queue)+inSim {
				t.Fatalf("seed %d step %d (%s): Inflight = %d, want queue %d + in simulator %d",
					seed, step, op, got, len(queue), inSim)
			}
			if accepted != len(queue)+withdrawn+taken {
				t.Fatalf("seed %d step %d (%s): accepted %d != queued %d + withdrawn %d + taken %d",
					seed, step, op, accepted, len(queue), withdrawn, taken)
			}
			if c.Accepted() != accepted || c.Shed() != shed || c.QueueDepth() != len(queue) || c.Draining() != draining {
				t.Fatalf("seed %d step %d (%s): accessors accepted=%d shed=%d queue=%d draining=%v, want %d %d %d %v",
					seed, step, op, c.Accepted(), c.Shed(), c.QueueDepth(), c.Draining(), accepted, shed, len(queue), draining)
			}
			m := rendered(t, c)
			shedSeries := m[`admission_shed_total{reason="queue_full"}`] +
				m[`admission_shed_total{reason="inflight_cap"}`] + m[`admission_shed_total{reason="draining"}`]
			if m["admission_accepted_total"] != float64(c.Accepted()) || shedSeries != float64(c.Shed()) ||
				m["admission_queue_depth"] != float64(c.QueueDepth()) ||
				m["admission_inject_failures_total"] != float64(injectFails) ||
				m["admission_queue_wait_seconds_count"] != float64(taken) {
				t.Fatalf("seed %d step %d (%s): rendered %v disagrees with accessors (accepted %d shed %d queue %d) or model (inject failures %d, taken %d)",
					seed, step, op, m, c.Accepted(), c.Shed(), c.QueueDepth(), injectFails, taken)
			}
		}

		c.TakeBatch()
		c.Settle(0)
		if got := c.Inflight(); got != 0 {
			t.Fatalf("seed %d: Inflight = %d after the queue emptied and the simulator settled to 0", seed, got)
		}
	}
}

func indexOf(ids []int, id int) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}
