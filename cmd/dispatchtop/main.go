// Command dispatchtop is an htop-style live console for a running
// dispatchd: one SSE connection to /v1/stream drives sparklines of the
// per-frame KPIs, the per-stage frame-budget attribution with overrun
// flags, the SLO alert table with fast/slow burn values, admission
// gauges with shed counts, and a rolling tail of lifecycle events and
// operator notices.
//
//	dispatchtop                          # console against localhost:8080
//	dispatchtop -url http://host:8080
//	dispatchtop -topics kpi,slo          # subscribe a subset
//	dispatchtop -once                    # render one frame to stdout, exit 0
//	dispatchtop -once -wait 2s           # ...after consuming 2s of live feed
//
// -once renders without cursor control or color, so CI can archive the
// frame as a build artifact and humans can pipe it to a file.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stabledispatch/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dispatchtop:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dispatchtop", flag.ContinueOnError)
	var (
		base      = fs.String("url", "http://localhost:8080", "dispatchd base URL")
		topics    = fs.String("topics", "", "comma-separated topic filter (kpi,slo,admission,events,notice; empty = all)")
		once      = fs.Bool("once", false, "render one frame to stdout and exit (headless/CI mode)")
		wait      = fs.Duration("wait", 0, "with -once: consume the live feed this long before rendering")
		refresh   = fs.Duration("refresh", 500*time.Millisecond, "live-mode repaint interval")
		width     = fs.Int("width", 100, "render width in columns")
		kpiWindow = fs.Int("kpi-window", 120, "KPI samples kept for sparklines")
		noColor   = fs.Bool("no-color", false, "disable ANSI colors in live mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	streamURL := strings.TrimSuffix(*base, "/") + "/v1/stream"
	if *topics != "" {
		streamURL += "?topics=" + url.QueryEscape(*topics)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	req, err := http.NewRequestWithContext(ctx, "GET", streamURL, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("connect %s: %w", streamURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("connect %s: %s: %s", streamURL, resp.Status, strings.TrimSpace(string(body)))
	}

	m := newModel(*kpiWindow)
	r := stream.NewReader(resp.Body)
	if *once {
		return runOnce(m, r, *wait, *width, out)
	}
	return runLive(ctx, m, r, *refresh, *width, !*noColor, out)
}

// runOnce consumes the snapshot (plus wait's worth of live feed) and
// renders a single plain frame: the CI and scripting mode.
func runOnce(m *model, r *stream.Reader, wait time.Duration, width int, out io.Writer) error {
	ev, err := r.ReadEvent()
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	m.apply(ev)
	if wait > 0 {
		events, errs := readLoop(r)
		deadline := time.After(wait)
	drain:
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					break drain
				}
				m.apply(ev)
			case <-errs:
				// A mid-drain disconnect still renders what arrived.
				break drain
			case <-deadline:
				break drain
			}
		}
	}
	_, err = io.WriteString(out, render(m, width, palette{on: false}))
	return err
}

// runLive paints the alternate screen until the stream ends or the user
// interrupts.
func runLive(ctx context.Context, m *model, r *stream.Reader, refresh time.Duration, width int, color bool, out io.Writer) error {
	events, errs := readLoop(r)
	p := palette{on: color}

	// Alternate screen + hidden cursor; restored on every exit path.
	fmt.Fprint(out, "\x1b[?1049h\x1b[?25l")
	defer fmt.Fprint(out, "\x1b[?25h\x1b[?1049l")
	paint := func() {
		fmt.Fprint(out, "\x1b[H\x1b[2J"+render(m, width, p))
	}
	paint()

	ticker := time.NewTicker(refresh)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case err := <-errs:
			if err == nil || err == io.EOF {
				return nil
			}
			return fmt.Errorf("stream closed: %w", err)
		case ev, ok := <-events:
			if !ok {
				return nil
			}
			m.apply(ev)
		case <-ticker.C:
			paint()
		}
	}
}

// readLoop pumps SSE events into a channel; the terminal error (or EOF)
// lands on errs and both channels close.
func readLoop(r *stream.Reader) (<-chan stream.Event, <-chan error) {
	events := make(chan stream.Event, 64)
	errs := make(chan error, 1)
	go func() {
		defer close(events)
		for {
			ev, err := r.ReadEvent()
			if err != nil {
				errs <- err
				return
			}
			events <- ev
		}
	}()
	return events, errs
}
