package admission

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/obs"
)

// fakeClock is a hand-advanced clock for latency assertions.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func req(x float64) fleet.Request {
	return fleet.Request{Pickup: geo.Point{X: x}, Dropoff: geo.Point{X: x + 1}}
}

// rendered parses c's Prometheus exposition into series name → value.
func rendered(t *testing.T, c *Controller) map[string]float64 {
	t.Helper()
	var p obs.Writer
	c.WritePrometheus(&p)
	var b strings.Builder
	if _, err := p.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

func TestAdmitAllocatesSequentialIDsInOrder(t *testing.T) {
	c := New(Config{QueueCap: 8})
	for i := 0; i < 5; i++ {
		id, err := c.Admit(req(float64(i)))
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if id != i {
			t.Errorf("id = %d, want %d", id, i)
		}
	}
	batch := c.TakeBatch()
	if len(batch) != 5 {
		t.Fatalf("batch len = %d", len(batch))
	}
	for i, r := range batch {
		if r.ID != i || r.Pickup.X != float64(i) {
			t.Errorf("batch[%d] = %+v, out of admission order", i, r)
		}
	}
	if c.QueueDepth() != 0 {
		t.Errorf("queue depth after TakeBatch = %d", c.QueueDepth())
	}
	if c.Inflight() != 5 {
		t.Errorf("inflight = %d, want 5 (batch taken but not terminal)", c.Inflight())
	}
}

func TestQueueFullSheds(t *testing.T) {
	c := New(Config{QueueCap: 2})
	for i := 0; i < 2; i++ {
		if _, err := c.Admit(req(0)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	_, err := c.Admit(req(0))
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.Reason != ReasonQueueFull {
		t.Errorf("reason = %s", shed.Reason)
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("retry-after = %v", shed.RetryAfter)
	}
	if got := rendered(t, c)[`admission_shed_total{reason="queue_full"}`]; got != 1 {
		t.Errorf("queue_full shed count = %v, want 1", got)
	}
	// Draining the queue reopens admission.
	c.TakeBatch()
	if _, err := c.Admit(req(0)); err != nil {
		t.Errorf("admit after drain: %v", err)
	}
}

func TestInflightCapShedsUntilTerminal(t *testing.T) {
	c := New(Config{QueueCap: 16, MaxInflight: 2})
	a, _ := c.Admit(req(0))
	b, _ := c.Admit(req(1))
	c.TakeBatch()
	_, err := c.Admit(req(2))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonInflight {
		t.Fatalf("err = %v, want inflight shed", err)
	}
	c.NoteTerminal(a)
	if _, err := c.Admit(req(3)); err != nil {
		t.Errorf("admit after terminal: %v", err)
	}
	c.NoteTerminal(b)
	if got := c.Inflight(); got != 1 {
		t.Errorf("inflight = %d, want 1 (only the queued request remains)", got)
	}
}

func TestDrainShedsWithDrainingReason(t *testing.T) {
	c := New(Config{QueueCap: 4})
	if _, err := c.Admit(req(0)); err != nil {
		t.Fatal(err)
	}
	c.BeginDrain()
	if !c.Draining() {
		t.Error("Draining() = false after BeginDrain")
	}
	_, err := c.Admit(req(1))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonDraining {
		t.Fatalf("err = %v, want draining shed", err)
	}
	// The admitted tail survives the drain flag.
	if got := len(c.TakeBatch()); got != 1 {
		t.Errorf("drained batch len = %d, want 1", got)
	}
}

func TestAssignmentLatencyObservedOncePerDispatch(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c := New(Config{QueueCap: 4, now: clock.now})
	id, _ := c.Admit(req(0))
	c.TakeBatch()
	clock.advance(2 * time.Second)
	c.NoteAssigned(id)
	c.NoteAssigned(id) // duplicate assign events must not double-observe
	if got := rendered(t, c)["admission_wait_seconds_count"]; got != 1 {
		t.Fatalf("wait observations = %v, want 1", got)
	}
	// A requeue restarts the clock; the re-dispatch observes again.
	c.NoteRequeued(id)
	clock.advance(time.Second)
	c.NoteAssigned(id)
	if got := rendered(t, c)["admission_wait_seconds_count"]; got != 2 {
		t.Errorf("wait observations after requeue = %v, want 2", got)
	}
}

func TestRequeueRebalancesLedgerAfterCancel(t *testing.T) {
	c := New(Config{QueueCap: 4})
	id, _ := c.Admit(req(0))
	c.TakeBatch()
	// Driver cancellation: cancel settles the entry, the immediately
	// following requeue must re-activate it.
	c.NoteTerminal(id)
	if c.Inflight() != 0 {
		t.Fatalf("inflight after cancel = %d", c.Inflight())
	}
	c.NoteRequeued(id)
	if c.Inflight() != 1 {
		t.Fatalf("inflight after requeue = %d, want 1", c.Inflight())
	}
	c.NoteTerminal(id)
	if c.Inflight() != 0 {
		t.Errorf("inflight after final terminal = %d", c.Inflight())
	}
	// Unknown IDs are ignored everywhere.
	c.NoteTerminal(999)
	c.NoteAssigned(999)
	if c.Inflight() != 0 {
		t.Errorf("inflight disturbed by unknown id: %d", c.Inflight())
	}
}

func TestQueueDepthGaugeTracksQueue(t *testing.T) {
	c := New(Config{QueueCap: 8})
	depth := func() float64 { return rendered(t, c)["admission_queue_depth"] }
	if g := depth(); g != 0 {
		t.Fatalf("initial gauge = %v", g)
	}
	c.Admit(req(0))
	c.Admit(req(1))
	if g := depth(); g != 2 {
		t.Errorf("gauge = %v, want 2", g)
	}
	c.TakeBatch()
	if g := depth(); g != 0 {
		t.Errorf("gauge after TakeBatch = %v, want 0", g)
	}
}

func TestConcurrentAdmitKeepsIDsUniqueAndBounded(t *testing.T) {
	const workers, perWorker = 8, 200
	c := New(Config{QueueCap: workers * perWorker})
	var wg sync.WaitGroup
	ids := make([][]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if id, err := c.Admit(req(0)); err == nil {
					ids[w] = append(ids[w], id)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool)
	total := 0
	for _, list := range ids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != workers*perWorker {
		t.Errorf("admitted %d, want %d", total, workers*perWorker)
	}
	if got := len(c.TakeBatch()); got != total {
		t.Errorf("batch len = %d, want %d", got, total)
	}
}

func TestInjectFailureReleasesInflight(t *testing.T) {
	c := New(Config{QueueCap: 4, MaxInflight: 1})
	id, _ := c.Admit(req(0))
	c.TakeBatch()
	c.NoteInjectFailure(id)
	if c.Inflight() != 0 {
		t.Errorf("inflight = %d after inject failure", c.Inflight())
	}
	if _, err := c.Admit(req(1)); err != nil {
		t.Errorf("admit after released slot: %v", err)
	}
}

// TestWithdrawKeepsOrderAndSlot pins the queued-cancellation contract:
// Withdraw takes one request out of the queue, the rest of the batch
// keeps admission order, and the in-flight slot is held until the
// cancellation settles it through NoteTerminal.
func TestWithdrawKeepsOrderAndSlot(t *testing.T) {
	c := New(Config{QueueCap: 8})
	for i := 0; i < 4; i++ {
		c.Admit(req(float64(i)))
	}
	if !c.Queued(2) || c.Queued(4) {
		t.Fatalf("Queued(2), Queued(4) = %v, %v; want true, false", c.Queued(2), c.Queued(4))
	}
	r, ok := c.Withdraw(2)
	if !ok || r.ID != 2 || r.Pickup.X != 2 {
		t.Fatalf("Withdraw(2) = %+v, %v", r, ok)
	}
	if _, ok := c.Withdraw(2); ok || c.Queued(2) {
		t.Fatal("request 2 still queued after Withdraw")
	}
	if c.QueueDepth() != 3 || c.Inflight() != 4 {
		t.Fatalf("depth %d inflight %d after Withdraw, want 3 and 4", c.QueueDepth(), c.Inflight())
	}
	c.NoteTerminal(2)
	if c.Inflight() != 3 {
		t.Fatalf("inflight %d after the withdrawn request settled, want 3", c.Inflight())
	}
	var ids []int
	for _, r := range c.TakeBatch() {
		ids = append(ids, r.ID)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 3 {
		t.Fatalf("batch after Withdraw = %v, want [0 1 3]", ids)
	}
	if c.Queued(0) {
		t.Fatal("request 0 reported queued after TakeBatch")
	}
}
