package slo

import (
	"fmt"
	"strings"
	"testing"
)

// formatDefs renders parsed objectives back into SLO-file text, one
// canonical line per objective (Def.Expr is the inverse of the
// condition grammar; the windows are written out explicitly).
func formatDefs(defs []Def) string {
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "%s: %s fast=%d slow=%d clear=%d\n",
			d.Name, d.Expr(), d.FastWindow, d.SlowWindow, d.ClearFrames)
	}
	return b.String()
}

// FuzzSLOParse feeds arbitrary SLO files to Parse. It must never
// panic, and every file it accepts must survive parse → format → parse
// unchanged. The seed corpus in testdata/fuzz holds the committed
// ci/*.slo files.
func FuzzSLOParse(f *testing.F) {
	f.Add("delay: max(delay_p95) < 3 fast=5 slow=60\nexpired: frac(expired, served) < 1% # burn\n")
	f.Fuzz(func(t *testing.T, text string) {
		defs, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		formatted := formatDefs(defs)
		again, err := Parse(strings.NewReader(formatted))
		if err != nil {
			t.Fatalf("formatted file does not parse: %v\n%s", err, formatted)
		}
		if len(again) != len(defs) {
			t.Fatalf("round trip kept %d of %d objectives:\n%s", len(again), len(defs), formatted)
		}
		for i := range defs {
			if again[i] != defs[i] {
				t.Fatalf("objective %d changed in round trip:\n got %+v\nwant %+v\n%s", i, again[i], defs[i], formatted)
			}
		}
	})
}
