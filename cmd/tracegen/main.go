// Command tracegen generates a synthetic passenger-request trace
// calibrated to the paper's New York or Boston datasets and writes it as
// CSV:
//
//	tracegen -city newyork -frames 1440 -o newyork-day.csv
//
// It can also convert a real NYC TLC trip-record CSV into the same
// format (timestamps to minute frames, WGS84 to the kilometre plane):
//
//	tracegen -tlc yellow_tripdata_2016-01.csv -o newyork-real.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stabledispatch/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		cityName = fs.String("city", "boston", "city model: boston or newyork")
		frames   = fs.Int("frames", 1440, "horizon in minutes")
		volume   = fs.Int("volume", 0, "requests per day (0 = paper default)")
		seats    = fs.Int("seats", 3, "maximum party size")
		seed     = fs.Int64("seed", 42, "random seed")
		outPath  = fs.String("o", "", "output file (default stdout)")
		tlcPath  = fs.String("tlc", "", "convert a NYC TLC trip-record CSV instead of generating")
		maxRows  = fs.Int("max-rows", 0, "cap converted TLC rows (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *tlcPath != "" {
		return convertTLC(*tlcPath, *outPath, *maxRows, stdout)
	}

	city, err := trace.CityByName(*cityName)
	if err != nil {
		return err
	}
	if *volume == 0 {
		*volume = city.RequestsPerDay
	}

	reqs, err := trace.Generate(trace.Config{
		City:           city,
		Frames:         *frames,
		RequestsPerDay: *volume,
		Seats:          *seats,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := trace.WriteCSV(out, reqs); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Fprintf(stdout, "wrote %d requests to %s\n", len(reqs), *outPath)
	}
	return nil
}

// convertTLC converts a real TLC trip-record file to the trace format.
func convertTLC(inPath, outPath string, maxRows int, stdout io.Writer) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	reqs, err := trace.ConvertTLC(in, trace.TLCOptions{MaxRows: maxRows})
	if err != nil {
		return err
	}
	out := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := trace.WriteCSV(out, reqs); err != nil {
		return err
	}
	if outPath != "" {
		fmt.Fprintf(stdout, "converted %d requests to %s\n", len(reqs), outPath)
	}
	return nil
}
