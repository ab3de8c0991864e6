// Command benchfig regenerates the paper's evaluation figures (Figs.
// 4–9) and the extra ablation experiments as aligned text tables:
//
//	benchfig -fig fig5            # one figure at paper scale (one day)
//	benchfig -fig all -quick      # everything, shrunken for a fast pass
//	benchfig -fig fig8 -frames 360 -volume-scale 0.25
//	benchfig -fig extras -quick       # ablation sweeps (maxnet, theta)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"stabledispatch/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	var (
		fig         = fs.String("fig", "all", "figure to regenerate: fig4..fig9 or all")
		quick       = fs.Bool("quick", false, "use the shrunken quick configuration")
		frames      = fs.Int("frames", 0, "override horizon in minutes")
		volumeScale = fs.Float64("volume-scale", 0, "override request volume scale")
		taxiScale   = fs.Float64("taxi-scale", 0, "override fleet size scale")
		seed        = fs.Int64("seed", 42, "random seed")
		plot        = fs.Bool("plot", false, "render ASCII charts instead of tables")
		asJSON      = fs.Bool("json", false, "emit figures as JSON for downstream plotting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := exp.DefaultOptions()
	if *quick {
		o = exp.QuickOptions()
	}
	if *frames > 0 {
		o.Frames = *frames
	}
	if *volumeScale > 0 {
		o.VolumeScale = *volumeScale
	}
	if *taxiScale > 0 {
		o.TaxiScale = *taxiScale
	}
	o.Seed = *seed

	runners := exp.Figures()
	var extraIDs []string
	for id, runner := range exp.Extras() {
		runners[id] = runner
		extraIDs = append(extraIDs, id)
	}
	sort.Strings(extraIDs)

	var ids []string
	switch *fig {
	case "all":
		ids = exp.FigureIDs()
	case "extras":
		ids = extraIDs
	default:
		ids = []string{*fig}
	}
	var figures []exp.Figure
	for _, id := range ids {
		runner, ok := runners[id]
		if !ok {
			return fmt.Errorf("unknown figure %q (want fig4..fig9, %v, all, or extras)", id, extraIDs)
		}
		start := time.Now()
		figure, err := runner(o)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *asJSON {
			figures = append(figures, figure)
			continue
		}
		render := figure.Render
		if *plot {
			render = figure.RenderPlots
		}
		if err := render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(figures)
	}
	return nil
}
