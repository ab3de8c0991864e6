package obs

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentWritersAndExporter hammers one histogram from
// parallel observers while a reader exports it concurrently;
// `go test -race ./internal/obs` is the real assertion.
func TestConcurrentWritersAndExporter(t *testing.T) {
	h := newHistogram(0.001, 0.01, 0.1)
	const (
		writers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			var w Writer
			w.Histogram(`race_seconds{stage="x"}`, h)
			if _, err := w.WriteTo(io.Discard); err != nil {
				t.Errorf("WriteTo: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := h.Count(); got != writers*rounds {
		t.Errorf("histogram count = %d, want %d", got, writers*rounds)
	}
}
