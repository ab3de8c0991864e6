package exp

import (
	"strings"
	"testing"
)

func tinyOptions() Options {
	o := QuickOptions()
	o.Frames = 45
	o.VolumeScale = 0.05
	o.TaxiScale = 0.05
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
	if err := QuickOptions().Validate(); err != nil {
		t.Errorf("QuickOptions invalid: %v", err)
	}
	bad := DefaultOptions()
	bad.Frames = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero frames")
	}
	bad = DefaultOptions()
	bad.VolumeScale = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero volume scale")
	}
	bad = DefaultOptions()
	bad.Theta = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative theta")
	}
}

func TestFigureRegistryComplete(t *testing.T) {
	figs := Figures()
	ids := FigureIDs()
	if len(figs) != len(ids) {
		t.Fatalf("registry has %d figures, IDs list %d", len(figs), len(ids))
	}
	for _, id := range ids {
		if figs[id] == nil {
			t.Errorf("figure %s missing from registry", id)
		}
	}
}

func checkFigure(t *testing.T, f Figure, wantSeries int) {
	t.Helper()
	if len(f.Panels) != 3 {
		t.Fatalf("%s has %d panels, want 3", f.ID, len(f.Panels))
	}
	for _, p := range f.Panels {
		if len(p.Series) != wantSeries {
			t.Fatalf("%s panel %q has %d series, want %d", f.ID, p.Metric, len(p.Series), wantSeries)
		}
		if len(p.X) == 0 {
			t.Fatalf("%s panel %q has empty x grid", f.ID, p.Metric)
		}
		for _, s := range p.Series {
			if len(s.Y) != len(p.X) {
				t.Fatalf("%s series %q has %d values for %d x points",
					f.ID, s.Name, len(s.Y), len(p.X))
			}
		}
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, f.ID) || !strings.Contains(out, "NSTD") && !strings.Contains(out, "STD") {
		t.Errorf("rendered figure looks wrong:\n%s", out)
	}
}

func TestFig5Quick(t *testing.T) {
	f, err := Fig5(tinyOptions())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	checkFigure(t, f, 5)
	// CDFs must be monotone and end at 1 (if any samples).
	for _, p := range f.Panels {
		for _, s := range p.Series {
			prev := 0.0
			for _, y := range s.Y {
				if y < prev-1e-12 {
					t.Fatalf("%s series %s not monotone", p.Metric, s.Name)
				}
				prev = y
			}
		}
	}
}

func TestFig6Quick(t *testing.T) {
	o := tinyOptions()
	f, err := Fig6(o)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	checkFigure(t, f, 5)
	if len(f.Panels[0].X) != 5 {
		t.Errorf("fig6 sweeps %d counts, want 5", len(f.Panels[0].X))
	}
}

func TestFig7Quick(t *testing.T) {
	o := tinyOptions()
	o.Frames = 90
	f, err := Fig7(o)
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	checkFigure(t, f, 5)
	if len(f.Panels[0].X) != 8 {
		t.Errorf("fig7 has %d clock buckets, want 8", len(f.Panels[0].X))
	}
}

func TestFig9Quick(t *testing.T) {
	f, err := Fig9(tinyOptions())
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	checkFigure(t, f, 4)
}

func TestInvalidOptionsRejected(t *testing.T) {
	bad := DefaultOptions()
	bad.Frames = -1
	for id, run := range Figures() {
		if _, err := run(bad); err == nil {
			t.Errorf("%s accepted invalid options", id)
		}
	}
}

func TestScaleCount(t *testing.T) {
	if got := scaleCount(700, 0.1); got != 70 {
		t.Errorf("scaleCount = %d, want 70", got)
	}
	if got := scaleCount(3, 0.01); got != 1 {
		t.Errorf("scaleCount floor = %d, want 1", got)
	}
}

func TestAblationsQuick(t *testing.T) {
	o := tinyOptions()
	for id, run := range Extras() {
		t.Run(id, func(t *testing.T) {
			fig, err := run(o)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if fig.ID != id {
				t.Errorf("figure ID = %q, want %q", fig.ID, id)
			}
			if len(fig.Panels) < 3 {
				t.Errorf("%s has %d panels", id, len(fig.Panels))
			}
			var sb strings.Builder
			if err := fig.Render(&sb); err != nil {
				t.Fatalf("Render: %v", err)
			}
		})
	}
}

func TestAblationsRejectInvalidOptions(t *testing.T) {
	bad := DefaultOptions()
	bad.VolumeScale = -1
	for id, run := range Extras() {
		if _, err := run(bad); err == nil {
			t.Errorf("%s accepted invalid options", id)
		}
	}
}

func TestReplicasPoolSamples(t *testing.T) {
	o := tinyOptions()
	single, err := Fig5(o)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	o.Replicas = 2
	pooled, err := Fig5(o)
	if err != nil {
		t.Fatalf("Fig5 replicated: %v", err)
	}
	checkFigure(t, pooled, 5)
	// Replication must not change the panel structure, and the pooled
	// CDFs generally differ from the single run (different workloads).
	if len(pooled.Panels) != len(single.Panels) {
		t.Fatalf("panel count changed under replication")
	}
}

func TestReplicasOnSweepFigure(t *testing.T) {
	o := tinyOptions()
	o.Replicas = 2
	fig, err := Fig6(o)
	if err != nil {
		t.Fatalf("Fig6 replicated: %v", err)
	}
	checkFigure(t, fig, 5)
}

func TestNegativeReplicasRejected(t *testing.T) {
	o := DefaultOptions()
	o.Replicas = -1
	if err := o.Validate(); err == nil {
		t.Error("accepted negative replicas")
	}
}
