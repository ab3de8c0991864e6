package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// maxCSVSeats is the largest party a trace row may carry, the bound
// dispatchd puts on POST /v1/requests.
const maxCSVSeats = 6

// csvHeader is the column layout for trace files: one request per row.
var csvHeader = []string{"id", "frame", "pickup_x", "pickup_y", "dropoff_x", "dropoff_y", "seats"}

// WriteCSV streams the requests to w in the trace CSV format, so real
// traces (e.g. the NYC TLC data) can be converted once and replayed.
func WriteCSV(w io.Writer, reqs []fleet.Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range reqs {
		row := []string{
			strconv.Itoa(r.ID),
			strconv.Itoa(r.Frame),
			strconv.FormatFloat(r.Pickup.X, 'f', -1, 64),
			strconv.FormatFloat(r.Pickup.Y, 'f', -1, 64),
			strconv.FormatFloat(r.Dropoff.X, 'f', -1, 64),
			strconv.FormatFloat(r.Dropoff.Y, 'f', -1, 64),
			strconv.Itoa(r.SeatCount()),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write request %d: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace CSV produced by WriteCSV (or converted from a
// real dataset). It rejects, with the offending row number, negative
// frames, non-finite coordinates (strconv accepts "NaN" and "Inf"), and
// seat counts outside dispatchd's 0–6 range (0 means one seat).
func ReadCSV(r io.Reader) ([]fleet.Request, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	for i, name := range csvHeader {
		if rows[0][i] != name {
			return nil, fmt.Errorf("trace: column %d is %q, want %q", i, rows[0][i], name)
		}
	}
	var reqs []fleet.Request
	for n, row := range rows[1:] {
		req, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", n+2, err)
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

func parseRow(row []string) (fleet.Request, error) {
	id, err := strconv.Atoi(row[0])
	if err != nil {
		return fleet.Request{}, fmt.Errorf("id: %w", err)
	}
	frame, err := strconv.Atoi(row[1])
	if err != nil {
		return fleet.Request{}, fmt.Errorf("frame: %w", err)
	}
	if frame < 0 {
		return fleet.Request{}, fmt.Errorf("frame %d is negative", frame)
	}
	coords := make([]float64, 4)
	for i := 0; i < 4; i++ {
		coords[i], err = strconv.ParseFloat(row[2+i], 64)
		if err != nil {
			return fleet.Request{}, fmt.Errorf("%s: %w", csvHeader[2+i], err)
		}
		if math.IsNaN(coords[i]) || math.IsInf(coords[i], 0) {
			return fleet.Request{}, fmt.Errorf("%s %q is not finite", csvHeader[2+i], row[2+i])
		}
	}
	seats, err := strconv.Atoi(row[6])
	if err != nil {
		return fleet.Request{}, fmt.Errorf("seats: %w", err)
	}
	if seats < 0 || seats > maxCSVSeats {
		return fleet.Request{}, fmt.Errorf("seats %d outside 0-%d", seats, maxCSVSeats)
	}
	return fleet.Request{
		ID:      id,
		Frame:   frame,
		Pickup:  geo.Point{X: coords[0], Y: coords[1]},
		Dropoff: geo.Point{X: coords[2], Y: coords[3]},
		Seats:   seats,
	}, nil
}
