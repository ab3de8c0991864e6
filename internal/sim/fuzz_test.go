package sim

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the event-log parser. It must
// never panic, and every stream it accepts must survive a JSONLSink →
// ReadJSONL round trip unchanged.
func FuzzReadJSONL(f *testing.F) {
	for _, seed := range []string{
		`{"frame":0,"kind":"request","requestId":1,"taxiId":-1,"pos":{"x":10.5,"y":10}}` + "\n" +
			`{"frame":0,"kind":"assign","requestId":1,"taxiId":3,"pos":{"x":10.5,"y":10}}` + "\n",
		`{"frame":4,"kind":"breakdown","requestId":-1,"taxiId":2,"pos":{"x":-1e3,"y":0.125}}`,
		`{"frame":1}{"kind":"dropoff"}`,
		`{"frame":"x"}`,
		`[1,2]`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		for _, e := range events {
			sink.Record(e)
		}
		if err := sink.Err(); err != nil {
			t.Fatalf("JSONLSink: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-reading written events: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip %d -> %d events", len(events), len(again))
		}
		for i, e := range events {
			if again[i] != e {
				t.Fatalf("event %d: round trip %+v, want %+v", i, again[i], e)
			}
		}
	})
}
