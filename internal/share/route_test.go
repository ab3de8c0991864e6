package share

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

func randomRequests(rng *rand.Rand, n int) []fleet.Request {
	reqs := make([]fleet.Request, n)
	for i := range reqs {
		reqs[i] = fleet.Request{
			ID:      i,
			Pickup:  geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Dropoff: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
		}
	}
	return reqs
}

// bruteBestLength enumerates all stop orders explicitly (no pruning) and
// returns the minimum length.
func bruteBestLength(reqs []fleet.Request, m geo.Metric) float64 {
	n := len(reqs)
	best := math.Inf(1)
	picked := make([]bool, n)
	dropped := make([]bool, n)
	var order []geo.Point

	var rec func()
	rec = func() {
		if len(order) == 2*n {
			length := 0.0
			prev := order[0]
			for _, p := range order[1:] {
				length += m.Distance(prev, p)
				prev = p
			}
			if length < best {
				best = length
			}
			return
		}
		for g := 0; g < n; g++ {
			if !picked[g] {
				picked[g] = true
				order = append(order, reqs[g].Pickup)
				rec()
				order = order[:len(order)-1]
				picked[g] = false
			} else if !dropped[g] {
				dropped[g] = true
				order = append(order, reqs[g].Dropoff)
				rec()
				order = order[:len(order)-1]
				dropped[g] = false
			}
		}
	}
	rec()
	return best
}

func TestBestRouteErrors(t *testing.T) {
	if _, err := BestRoute(nil, geo.EuclidMetric); !errors.Is(err, ErrNoRequests) {
		t.Errorf("BestRoute(nil) err = %v, want ErrNoRequests", err)
	}
	if _, err := BestRoute(randomRequests(rand.New(rand.NewSource(1)), 4), geo.EuclidMetric); err == nil {
		t.Error("BestRoute accepted a group of 4")
	}
}

func TestBestRouteSingle(t *testing.T) {
	r := fleet.Request{ID: 7, Pickup: geo.Point{}, Dropoff: geo.Point{X: 3, Y: 4}}
	plan, err := BestRoute([]fleet.Request{r}, geo.EuclidMetric)
	if err != nil {
		t.Fatalf("BestRoute: %v", err)
	}
	if plan.Length != 5 {
		t.Errorf("Length = %v, want 5", plan.Length)
	}
	if plan.PickupOffset[0] != 0 || plan.OnBoard[0] != 5 {
		t.Errorf("offsets = %v / %v, want 0 / 5", plan.PickupOffset[0], plan.OnBoard[0])
	}
	if plan.MaxLoad != 1 {
		t.Errorf("MaxLoad = %d, want 1", plan.MaxLoad)
	}
	if len(plan.Stops) != 2 || plan.Stops[0].Kind != fleet.StopPickup {
		t.Errorf("Stops = %v", plan.Stops)
	}
}

func TestBestRoutePickupBeforeDropoff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		reqs := randomRequests(rng, 1+rng.Intn(3))
		plan, err := BestRoute(reqs, geo.EuclidMetric)
		if err != nil {
			t.Fatalf("BestRoute: %v", err)
		}
		a := fleet.Assignment{TaxiID: 0, Requests: idsOf(reqs), Route: plan.Stops}
		if err := a.Validate(); err != nil {
			t.Fatalf("trial %d: invalid route: %v", trial, err)
		}
	}
}

func indexByID(reqs []fleet.Request, id int) int {
	for i, r := range reqs {
		if r.ID == id {
			return i
		}
	}
	return -1
}

func idsOf(reqs []fleet.Request) []int {
	ids := make([]int, len(reqs))
	for i, r := range reqs {
		ids[i] = r.ID
	}
	return ids
}

func TestBestRouteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		reqs := randomRequests(rng, 1+rng.Intn(3))
		plan, err := BestRoute(reqs, geo.EuclidMetric)
		if err != nil {
			t.Fatalf("BestRoute: %v", err)
		}
		want := bruteBestLength(reqs, geo.EuclidMetric)
		if math.Abs(plan.Length-want) > 1e-9 {
			t.Fatalf("trial %d: Length = %v, brute force = %v", trial, plan.Length, want)
		}
	}
}

// TestBestRouteAsymmetricMetric checks the search reads its leg table
// in the direction of travel: under a metric where D(a, b) ≠ D(b, a),
// BestRoute must still find the brute-force minimum, and its offsets
// must walk the chosen order forwards.
func TestBestRouteAsymmetricMetric(t *testing.T) {
	// Eastbound and northbound legs cost extra, so every point pair has
	// two different lengths.
	m := geo.MetricFunc(func(a, b geo.Point) float64 {
		return geo.Euclid(a, b) + 0.7*max(b.X-a.X, 0) + 0.3*max(b.Y-a.Y, 0)
	})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		reqs := randomRequests(rng, 1+rng.Intn(3))
		plan, err := BestRoute(reqs, m)
		if err != nil {
			t.Fatalf("BestRoute: %v", err)
		}
		if want := bruteBestLength(reqs, m); plan.Length != want {
			t.Fatalf("trial %d: Length = %v, brute force = %v", trial, plan.Length, want)
		}
		dist := 0.0
		for i, stop := range plan.Stops {
			if i > 0 {
				dist += m.Distance(plan.Stops[i-1].Pos, stop.Pos)
			}
			if g := indexByID(reqs, stop.RequestID); stop.Kind == fleet.StopPickup && plan.PickupOffset[g] != dist {
				t.Fatalf("trial %d: PickupOffset[%d] = %v, walked %v", trial, g, plan.PickupOffset[g], dist)
			}
		}
		if dist != plan.Length {
			t.Fatalf("trial %d: Length = %v, walked %v", trial, plan.Length, dist)
		}
	}
}

func TestRouteOffsetsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		reqs := randomRequests(rng, 2+rng.Intn(2))
		plan, err := BestRoute(reqs, geo.EuclidMetric)
		if err != nil {
			t.Fatalf("BestRoute: %v", err)
		}
		// Walk the route manually and cross-check every offset.
		dist := 0.0
		pickupAt := make(map[int]float64)
		for i, stop := range plan.Stops {
			if i > 0 {
				dist += geo.Euclid(plan.Stops[i-1].Pos, stop.Pos)
			}
			g := indexByID(reqs, stop.RequestID)
			if stop.Kind == fleet.StopPickup {
				if math.Abs(plan.PickupOffset[g]-dist) > 1e-9 {
					t.Fatalf("trial %d: PickupOffset[%d] = %v, walked %v", trial, g, plan.PickupOffset[g], dist)
				}
				pickupAt[g] = dist
			} else {
				onBoard := dist - pickupAt[g]
				if math.Abs(plan.OnBoard[g]-onBoard) > 1e-9 {
					t.Fatalf("trial %d: OnBoard[%d] = %v, walked %v", trial, g, plan.OnBoard[g], onBoard)
				}
			}
		}
		if math.Abs(plan.Length-dist) > 1e-9 {
			t.Fatalf("trial %d: Length = %v, walked %v", trial, plan.Length, dist)
		}
	}
}

func TestOnBoardNeverShorterThanSolo(t *testing.T) {
	// The shared on-board distance can never beat the direct trip
	// under a metric satisfying the triangle inequality.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		reqs := randomRequests(rng, 2+rng.Intn(2))
		plan, err := BestRoute(reqs, geo.EuclidMetric)
		if err != nil {
			t.Fatalf("BestRoute: %v", err)
		}
		for g, r := range reqs {
			if plan.OnBoard[g] < r.TripDistance(geo.EuclidMetric)-1e-9 {
				t.Fatalf("trial %d: OnBoard[%d] = %v beats solo %v",
					trial, g, plan.OnBoard[g], r.TripDistance(geo.EuclidMetric))
			}
		}
	}
}

func TestMaxLoadWithSeats(t *testing.T) {
	// Two overlapping riders with 2 seats each: max load 4. Disjoint
	// trips along a line: max load 2.
	overlap := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 0}, Dropoff: geo.Point{X: 10}, Seats: 2},
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 9}, Seats: 2},
	}
	plan, err := BestRoute(overlap, geo.EuclidMetric)
	if err != nil {
		t.Fatalf("BestRoute: %v", err)
	}
	if plan.MaxLoad != 4 {
		t.Errorf("overlapping MaxLoad = %d, want 4", plan.MaxLoad)
	}

	disjoint := []fleet.Request{
		{ID: 0, Pickup: geo.Point{X: 0}, Dropoff: geo.Point{X: 1}, Seats: 2},
		{ID: 1, Pickup: geo.Point{X: 5}, Dropoff: geo.Point{X: 6}, Seats: 2},
	}
	plan, err = BestRoute(disjoint, geo.EuclidMetric)
	if err != nil {
		t.Fatalf("BestRoute: %v", err)
	}
	if plan.MaxLoad != 2 {
		t.Errorf("disjoint MaxLoad = %d, want 2", plan.MaxLoad)
	}
}

func TestDetour(t *testing.T) {
	plan := RoutePlan{OnBoard: []float64{7, 3}}
	if got := plan.Detour(0, 5); got != 2 {
		t.Errorf("Detour = %v, want 2", got)
	}
	if got := plan.Detour(1, 3); got != 0 {
		t.Errorf("Detour = %v, want 0", got)
	}
}
