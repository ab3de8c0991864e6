package stream

import (
	"strings"
	"testing"
)

// FuzzParseTopics feeds arbitrary query values to the topics= parser.
// It must never panic; every topic it returns must be valid, one per
// non-blank comma-separated part.
func FuzzParseTopics(f *testing.F) {
	for _, seed := range []string{"", "kpi", "kpi, events ,notice", "kpi,,slo", "kpi,bogus", " , ", "KPI"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		topics, err := ParseTopics(q)
		if err != nil {
			return
		}
		parts := 0
		for _, p := range strings.Split(q, ",") {
			if strings.TrimSpace(p) != "" {
				parts++
			}
		}
		if len(topics) != parts {
			t.Fatalf("ParseTopics(%q) = %v: %d topics from %d parts", q, topics, len(topics), parts)
		}
		for _, tp := range topics {
			if !ValidTopic(tp) {
				t.Fatalf("ParseTopics(%q) returned invalid topic %q", q, tp)
			}
		}
	})
}
