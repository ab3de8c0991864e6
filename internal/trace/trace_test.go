package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"stabledispatch/internal/geo"
)

func TestCityByName(t *testing.T) {
	for name, want := range map[string]string{
		"boston": "boston", "Boston": "boston",
		"newyork": "newyork", "nyc": "newyork", "new-york": "newyork", "NYC": "newyork",
	} {
		c, err := CityByName(name)
		if err != nil || c.Name != want {
			t.Errorf("CityByName(%q) = %q, %v; want %q", name, c.Name, err, want)
		}
	}
	if _, err := CityByName("gotham"); err == nil {
		t.Error("CityByName accepted an unknown city")
	}
}

// TestPaperCalibration pins the §VI daily volumes and fleets every
// paper-scale default reads from the city.
func TestPaperCalibration(t *testing.T) {
	for _, tc := range []struct {
		cfg           Config
		volume, fleet int
	}{
		{NewYorkConfig(1440, 1), 46600, 700},
		{BostonConfig(1440, 1), 13500, 200},
	} {
		c := tc.cfg.City
		if c.RequestsPerDay != tc.volume || c.Fleet != tc.fleet || tc.cfg.RequestsPerDay != tc.volume {
			t.Errorf("%s: city %d requests/day, fleet %d, config %d requests/day; want %d, %d",
				c.Name, c.RequestsPerDay, c.Fleet, tc.cfg.RequestsPerDay, tc.volume, tc.fleet)
		}
	}
}

func TestCityValidate(t *testing.T) {
	tests := []struct {
		name    string
		city    City
		wantErr bool
	}{
		{name: "newyork", city: NewYork()},
		{name: "boston", city: Boston()},
		{name: "degenerate bounds", city: City{Bounds: geo.NewRect(geo.Point{}, geo.Point{})}, wantErr: true},
		{
			name: "no hotspots",
			city: City{
				Bounds:     geo.NewRect(geo.Point{}, geo.Point{X: 1, Y: 1}),
				TaxiStdDev: 1,
			},
			wantErr: true,
		},
		{
			name: "bad hotspot",
			city: City{
				Bounds:     geo.NewRect(geo.Point{}, geo.Point{X: 1, Y: 1}),
				Hotspots:   []Hotspot{{StdDev: 0, Weight: 1}},
				TaxiStdDev: 1,
			},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.city.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	good := BostonConfig(60, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	bad := good
	bad.Frames = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero frames")
	}
	bad = good
	bad.RequestsPerDay = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero volume")
	}
	bad = good
	bad.Seats = 9
	if err := bad.Validate(); err == nil {
		t.Error("accepted 9 seats")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := BostonConfig(120, 7)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between runs", i)
		}
	}
}

func TestGenerateProperties(t *testing.T) {
	cfg := BostonConfig(1440, 3)
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Volume within 15% of the calibrated daily count.
	if math.Abs(float64(len(reqs))-13500) > 13500*0.15 {
		t.Errorf("generated %d requests, want ~13500", len(reqs))
	}
	prevFrame := 0
	ids := make(map[int]bool, len(reqs))
	for _, r := range reqs {
		if ids[r.ID] {
			t.Fatalf("duplicate request ID %d", r.ID)
		}
		ids[r.ID] = true
		if r.Frame < prevFrame {
			t.Fatal("requests not sorted by frame")
		}
		prevFrame = r.Frame
		if !cfg.City.Bounds.Contains(r.Pickup) || !cfg.City.Bounds.Contains(r.Dropoff) {
			t.Fatalf("request %d outside city bounds", r.ID)
		}
		if r.SeatCount() < 1 || r.SeatCount() > 3 {
			t.Fatalf("request %d seats = %d", r.ID, r.Seats)
		}
	}
}

func TestGenerateRushHourPattern(t *testing.T) {
	cfg := BostonConfig(1440, 5)
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	perHour := make([]int, 24)
	for _, r := range reqs {
		perHour[(r.Frame%1440)/60]++
	}
	// Rush hours must clearly dominate the small hours.
	if perHour[9] <= 2*perHour[4] {
		t.Errorf("9am hour (%d) not dominant over 4am (%d)", perHour[9], perHour[4])
	}
	if perHour[18] <= 2*perHour[4] {
		t.Errorf("6pm hour (%d) not dominant over 4am (%d)", perHour[18], perHour[4])
	}
}

func TestHourWeight(t *testing.T) {
	if HourWeight(9*60) <= HourWeight(4*60) {
		t.Error("9am weight not above 4am")
	}
	if HourWeight(18*60) <= HourWeight(3*60) {
		t.Error("6pm weight not above 3am")
	}
	// Wraps across days and handles negatives.
	if HourWeight(1440+30) != HourWeight(30) {
		t.Error("HourWeight does not wrap across days")
	}
	if HourWeight(-1) != HourWeight(1439) {
		t.Error("HourWeight mishandles negative frames")
	}
}

func TestNewYorkLargerThanBoston(t *testing.T) {
	ny, bos := NewYork(), Boston()
	if ny.Bounds.Width() <= bos.Bounds.Width() {
		t.Error("New York must span a larger area than Boston (the paper leans on this)")
	}
}

func TestTaxis(t *testing.T) {
	city := Boston()
	taxis, err := Taxis(city, 200, 1)
	if err != nil {
		t.Fatalf("Taxis: %v", err)
	}
	if len(taxis) != 200 {
		t.Fatalf("got %d taxis", len(taxis))
	}
	ids := make(map[int]bool)
	center := city.Bounds.Center()
	var meanDist float64
	for _, taxi := range taxis {
		if ids[taxi.ID] {
			t.Fatalf("duplicate taxi ID %d", taxi.ID)
		}
		ids[taxi.ID] = true
		if !city.Bounds.Contains(taxi.Pos) {
			t.Fatalf("taxi %d outside bounds", taxi.ID)
		}
		meanDist += geo.Euclid(taxi.Pos, center)
	}
	meanDist /= float64(len(taxis))
	// 2-D normal with sigma=3: mean radius = sigma*sqrt(pi/2) ≈ 3.76.
	if meanDist > 6 {
		t.Errorf("taxis not concentrated around center: mean radius %v", meanDist)
	}

	if _, err := Taxis(city, -1, 1); err == nil {
		t.Error("Taxis accepted negative count")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := BostonConfig(30, 9)
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip %d -> %d requests", len(reqs), len(got))
	}
	for i := range reqs {
		want := reqs[i]
		want.Seats = reqs[i].SeatCount() // writer normalises seats
		if got[i] != want {
			t.Fatalf("request %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{name: "empty", data: ""},
		{name: "bad header", data: "a,b,c,d,e,f,g\n"},
		{name: "bad id", data: "id,frame,pickup_x,pickup_y,dropoff_x,dropoff_y,seats\nx,0,0,0,1,1,1\n"},
		{name: "bad coord", data: "id,frame,pickup_x,pickup_y,dropoff_x,dropoff_y,seats\n1,0,?,0,1,1,1\n"},
		{name: "short row", data: "id,frame,pickup_x,pickup_y,dropoff_x,dropoff_y,seats\n1,0,0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.data)); err == nil {
				t.Error("ReadCSV accepted malformed input")
			}
		})
	}
}

// TestReadCSVRejectsOutOfRangeValues checks the values strconv parses
// but a trace must not carry are refused with the row that holds them.
func TestReadCSVRejectsOutOfRangeValues(t *testing.T) {
	const header = "id,frame,pickup_x,pickup_y,dropoff_x,dropoff_y,seats\n1,0,0,0,1,1,1\n"
	for _, tt := range []struct{ row, want string }{
		{"2,0,NaN,0,1,1,1", `row 3: pickup_x "NaN" is not finite`},
		{"2,0,0,+Inf,1,1,1", `row 3: pickup_y "+Inf" is not finite`},
		{"2,0,0,0,-inf,1,1", `row 3: dropoff_x "-inf" is not finite`},
		{"2,0,0,0,1,1e400,1", "row 3: dropoff_y"},
		{"2,-1,0,0,1,1,1", "row 3: frame -1 is negative"},
		{"2,0,0,0,1,1,7", "row 3: seats 7 outside 0-6"},
		{"2,0,0,0,1,1,-1", "row 3: seats -1 outside 0-6"},
	} {
		_, err := ReadCSV(strings.NewReader(header + tt.row + "\n"))
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("row %q: err = %v, want one containing %q", tt.row, err, tt.want)
		}
	}
	reqs, err := ReadCSV(strings.NewReader(header + "2,5,-3.5,0,1,1,0\n3,0,0,0,1,1,6\n"))
	if err != nil || len(reqs) != 3 {
		t.Fatalf("in-range rows: %d requests, err %v", len(reqs), err)
	}
}
