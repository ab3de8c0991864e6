package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func quickArgs(fig string) []string {
	return []string{
		"-fig", fig, "-quick",
		"-frames", "30", "-volume-scale", "0.04", "-taxi-scale", "0.04",
	}
}

func TestRunOneFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("fig5"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"fig5", "dispatch delay CDF", "NSTD-P", "Bottleneck", "regenerated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSharingFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("fig9"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"STD-P", "SARP", "ILP"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "fig42"}, &sb); err == nil {
		t.Error("accepted unknown figure")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("accepted unknown flag")
	}
}

func TestRunPlotMode(t *testing.T) {
	var sb strings.Builder
	args := append(quickArgs("fig5"), "-plot")
	if err := run(args, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "+---") && !strings.Contains(out, "+----") {
		t.Errorf("plot mode produced no chart axis:\n%.400s", out)
	}
	if !strings.Contains(out, "* NSTD-P") {
		t.Errorf("plot legend missing:\n%.400s", out)
	}
}

func TestRunJSONMode(t *testing.T) {
	var sb strings.Builder
	args := append(quickArgs("fig5"), "-json")
	if err := run(args, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	var figures []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &figures); err != nil {
		t.Fatalf("output is not JSON: %v\n%.300s", err, sb.String())
	}
	if len(figures) != 1 || figures[0]["id"] != "fig5" {
		t.Errorf("figures = %v", figures)
	}
}

// TestRunJSONEmptyBuckets decodes a quick Fig. 7, whose short horizon
// leaves most 3-hour clock buckets empty: their NaN means must encode as
// null, not fail the run.
func TestRunJSONEmptyBuckets(t *testing.T) {
	var sb strings.Builder
	if err := run(append(quickArgs("fig7"), "-json"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	var figures []struct {
		ID     string `json:"id"`
		Panels []struct {
			X      []float64 `json:"x"`
			Series []struct {
				Name string     `json:"name"`
				Y    []*float64 `json:"y"`
			} `json:"series"`
		} `json:"panels"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &figures); err != nil {
		t.Fatalf("output is not JSON: %v\n%.300s", err, sb.String())
	}
	if len(figures) != 1 || figures[0].ID != "fig7" {
		t.Fatalf("figures = %+v", figures)
	}
	empty, filled := 0, 0
	for _, p := range figures[0].Panels {
		for _, s := range p.Series {
			if len(s.Y) != len(p.X) {
				t.Fatalf("series %s has %d values over %d buckets", s.Name, len(s.Y), len(p.X))
			}
			for _, y := range s.Y {
				if y == nil {
					empty++
				} else {
					filled++
				}
			}
		}
	}
	if empty == 0 || filled == 0 {
		t.Fatalf("%d null and %d numeric bucket means; want both", empty, filled)
	}
}
