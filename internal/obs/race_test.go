package obs

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentWritersAndExporter hammers one registry from parallel
// counter/gauge/histogram writers while a reader exports
// concurrently; `go test -race ./internal/obs` is the real assertion.
func TestConcurrentWritersAndExporter(t *testing.T) {
	r := NewRegistry()
	const (
		writers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every writer resolves its own metric handles to exercise
			// the registration race path too.
			c := r.GetOrCreateCounter("race_total")
			g := r.GetOrCreateGauge("race_depth")
			h := r.GetOrCreateHistogram(`race_seconds{stage="x"}`, 0.001, 0.01, 0.1)
			for i := 0; i < rounds; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%100) / 1000)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := r.GetOrCreateCounter("race_total").Value(); got != writers*rounds {
		t.Errorf("counter = %d, want %d", got, writers*rounds)
	}
	if got := r.GetOrCreateHistogram(`race_seconds{stage="x"}`).Count(); got != writers*rounds {
		t.Errorf("histogram count = %d, want %d", got, writers*rounds)
	}
}
