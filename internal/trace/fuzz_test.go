package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the trace parser. It must never
// panic; every request it accepts must have a non-negative frame, finite
// coordinates and 0–6 seats; and accepted requests must survive a
// WriteCSV → ReadCSV round trip unchanged (seats normalised as the
// writer does).
func FuzzReadCSV(f *testing.F) {
	const header = "id,frame,pickup_x,pickup_y,dropoff_x,dropoff_y,seats\n"
	for _, seed := range []string{
		header + "1,0,10.5,10,12,10,1\n2,3,-1.25,4e2,0,0,0\n",
		header + "1,0,NaN,10,12,10,1\n",
		header + "1,0,10,10,+Inf,10,1\n",
		header + "1,-2,10,10,12,10,1\n",
		header + "1,0,10,10,12,10,7\n",
		header + "\"1\",0,1,1,2,2,2\n",
		"id,frame\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range reqs {
			for _, v := range []float64{r.Pickup.X, r.Pickup.Y, r.Dropoff.X, r.Dropoff.Y} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("request %d accepted with a non-finite coordinate: %+v", r.ID, r)
				}
			}
			if r.Frame < 0 || r.Seats < 0 || r.Seats > maxCSVSeats {
				t.Fatalf("request %d accepted out of range: %+v", r.ID, r)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, reqs); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading written trace: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("round trip %d -> %d requests", len(reqs), len(again))
		}
		for i, r := range reqs {
			r.Seats = r.SeatCount()
			if again[i] != r {
				t.Fatalf("request %d: round trip %+v, want %+v", i, again[i], r)
			}
		}
	})
}
