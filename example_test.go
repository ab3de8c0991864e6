package stabledispatch_test

import (
	"fmt"
	"log"
	"math/rand"

	"stabledispatch"
)

// Example dispatches one frame's worth of requests with Algorithm 1 and
// prints the stable schedule.
func Example() {
	requests := []stabledispatch.Request{
		{ID: 0, Pickup: stabledispatch.Point{X: 1}, Dropoff: stabledispatch.Point{X: 6}},
		{ID: 1, Pickup: stabledispatch.Point{X: 4}, Dropoff: stabledispatch.Point{X: 12}},
		{ID: 2, Pickup: stabledispatch.Point{X: 9}, Dropoff: stabledispatch.Point{X: 9.5}},
	}
	taxis := []stabledispatch.Taxi{
		{ID: 0, Pos: stabledispatch.Point{X: 0}},
		{ID: 1, Pos: stabledispatch.Point{X: 5}},
	}

	inst, err := stabledispatch.NewInstance(requests, taxis,
		stabledispatch.EuclidMetric, stabledispatch.DefaultParams())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	matching := stabledispatch.PassengerOptimal(&inst.Market)
	for j, i := range matching.ReqPartner {
		if i == stabledispatch.Unmatched {
			fmt.Printf("request %d: unserved (dummy partner)\n", requests[j].ID)
		} else {
			fmt.Printf("request %d: taxi %d\n", requests[j].ID, taxis[i].ID)
		}
	}
	// Output:
	// request 0: taxi 0
	// request 1: taxi 1
	// request 2: unserved (dummy partner)
}

// ExampleBestSharedRoute plans the optimal shared route for two
// co-directional riders.
func ExampleBestSharedRoute() {
	riders := []stabledispatch.Request{
		{ID: 0, Pickup: stabledispatch.Point{X: 0}, Dropoff: stabledispatch.Point{X: 10}},
		{ID: 1, Pickup: stabledispatch.Point{X: 1}, Dropoff: stabledispatch.Point{X: 9}},
	}
	plan, err := stabledispatch.BestSharedRoute(riders, stabledispatch.EuclidMetric)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("route length: %.0f km\n", plan.Length)
	for _, stop := range plan.Stops {
		fmt.Printf("%v r%d\n", stop.Kind, stop.RequestID)
	}
	// Output:
	// route length: 10 km
	// pickup r0
	// pickup r1
	// dropoff r1
	// dropoff r0
}

// ExampleNewSimulator dispatches a synthetic Boston morning with the
// paper's passenger-optimal stable matching (NSTD-P) and compares it
// against the greedy nearest-taxi baseline. The fleet is deliberately
// tight so taxis compete for rides, the regime the stability argument
// is about: NSTD-P trades a little delay for much happier drivers, the
// paper's headline result.
func ExampleNewSimulator() {
	city := stabledispatch.Boston()
	traceCfg := stabledispatch.BostonConfig(240 /* frames */, 1 /* seed */)
	requests, err := stabledispatch.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	taxis, err := stabledispatch.GenerateTaxis(city, 80, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d requests, %d taxis, %d minutes\n",
		len(requests), len(taxis), traceCfg.Frames)

	for _, dispatcher := range []stabledispatch.Dispatcher{
		stabledispatch.NSTDP(),
		stabledispatch.GreedyDispatcher(),
	} {
		sim, err := stabledispatch.NewSimulator(stabledispatch.SimConfig{
			Dispatcher: dispatcher,
			Params:     stabledispatch.DefaultParams(),
		}, taxis, requests)
		if err != nil {
			log.Fatal(err)
		}
		report, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s served %4d/%d  mean delay %5.2f min  "+
			"passenger diss %6.3f km  taxi diss %7.3f km\n",
			report.Algorithm, report.ServedCount(), len(requests),
			mean(report.DispatchDelays()),
			mean(report.PassengerDissatisfactions()),
			mean(report.TaxiDissatisfactions()))
	}
	// Output:
	// workload: 1120 requests, 80 taxis, 240 minutes
	// NSTD-P   served 1120/1120  mean delay  0.28 min  passenger diss  1.248 km  taxi diss  -0.620 km
	// Greedy   served 1120/1120  mean delay  0.35 min  passenger diss  1.567 km  taxi diss  -0.301 km
}

// ExamplePackRequests runs Algorithm 3 end to end. It packs the first
// frames' requests into shared rides (maximum set packing under the
// detour bound θ) and prints each group's optimal shared route, then
// simulates STD-P against the SARP insertion baseline on a tight fleet.
func ExamplePackRequests() {
	city := stabledispatch.Boston()
	requests, err := stabledispatch.GenerateTrace(stabledispatch.BostonConfig(120, 21))
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1 on the first frames' batch: pack compatible itineraries.
	var batch []stabledispatch.Request
	for _, r := range requests {
		if r.Frame < 3 {
			batch = append(batch, r)
		}
	}
	packCfg := stabledispatch.DefaultPackConfig() // θ = 5 km, |group| ≤ 3
	result, err := stabledispatch.PackRequests(batch, stabledispatch.EuclidMetric, packCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d requests -> %d shared groups, %d riding alone\n",
		len(batch), len(result.Groups), len(result.Singles))
	for _, g := range result.Groups {
		fmt.Printf("group %v: route %.2f km", g.Members, g.Plan.Length)
		for gi, idx := range g.Members {
			solo := batch[idx].TripDistance(stabledispatch.EuclidMetric)
			fmt.Printf("  rider %d detour %.2f km", batch[idx].ID, g.Plan.Detour(gi, solo))
		}
		fmt.Println()
	}

	// The whole trace: stable sharing dispatch vs insertion baseline.
	taxis, err := stabledispatch.GenerateTaxis(city, 60, 22)
	if err != nil {
		log.Fatal(err)
	}
	for _, dispatcher := range []stabledispatch.Dispatcher{
		stabledispatch.STDP(packCfg),
		stabledispatch.SARPDispatcher(stabledispatch.DefaultCarpoolConfig()),
	} {
		sim, err := stabledispatch.NewSimulator(stabledispatch.SimConfig{
			Dispatcher: dispatcher,
			Params:     stabledispatch.DefaultParams(),
		}, taxis, requests)
		if err != nil {
			log.Fatal(err)
		}
		report, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s served %4d/%d  shared rides %3d  mean delay %5.2f min  taxi diss %7.3f km\n",
			report.Algorithm, report.ServedCount(), len(requests),
			report.SharedRideCount(), mean(report.DispatchDelays()),
			mean(report.TaxiDissatisfactions()))
	}
	// Output:
	// batch of 26 requests -> 7 shared groups, 12 riding alone
	// group [2 17]: route 6.01 km  rider 2 detour 0.00 km  rider 17 detour 0.28 km
	// group [4 20]: route 3.66 km  rider 4 detour 1.06 km  rider 20 detour -0.00 km
	// group [6 16]: route 4.80 km  rider 6 detour 0.03 km  rider 16 detour 0.21 km
	// group [10 21]: route 1.17 km  rider 10 detour 0.30 km  rider 21 detour -0.00 km
	// group [11 19]: route 3.99 km  rider 11 detour -0.00 km  rider 19 detour 1.07 km
	// group [12 13]: route 4.07 km  rider 12 detour 0.11 km  rider 13 detour 0.00 km
	// group [15 23]: route 3.05 km  rider 15 detour 0.05 km  rider 23 detour 0.32 km
	// STD-P  served  650/650  shared rides 142  mean delay  1.26 min  taxi diss  -1.020 km
	// SARP   served  650/650  shared rides 550  mean delay  0.00 min  taxi diss  -1.827 km
}

// ExampleSimConfig_outages takes a third of the fleet offline during
// minutes 60–120 and compares the run with a healthy one. Drivers
// finish their current fare before going offline, waiting passengers
// spill over to the remaining taxis, and service recovers when the
// outage lifts.
func ExampleSimConfig_outages() {
	requests, err := stabledispatch.GenerateTrace(stabledispatch.BostonConfig(180, 77))
	if err != nil {
		log.Fatal(err)
	}
	taxis, err := stabledispatch.GenerateTaxis(stabledispatch.Boston(), 60, 78)
	if err != nil {
		log.Fatal(err)
	}
	var outages []stabledispatch.Outage
	for _, t := range taxis[:len(taxis)/3] {
		outages = append(outages, stabledispatch.Outage{TaxiID: t.ID, From: 60, To: 120})
	}

	run := func(label string, out []stabledispatch.Outage) *stabledispatch.Report {
		sim, err := stabledispatch.NewSimulator(stabledispatch.SimConfig{
			Dispatcher:     stabledispatch.NSTDP(),
			Params:         stabledispatch.DefaultParams(),
			Outages:        out,
			PatienceFrames: 45,
		}, taxis, requests)
		if err != nil {
			log.Fatal(err)
		}
		report, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s served %4d/%d  abandoned %3d  mean delay %5.2f min\n",
			label, report.ServedCount(), len(requests),
			report.AbandonedCount(), mean(report.DispatchDelays()))
		return report
	}
	healthy := run("healthy", nil)
	degraded := run("with outage", outages)

	// The per-half-hour delay profile shows the dip and the recovery.
	halfHourDelay := func(rep *stabledispatch.Report, lo int) float64 {
		var delays []float64
		for _, o := range rep.Requests {
			if o.Served && o.ArrivalFrame >= lo && o.ArrivalFrame < lo+30 {
				delays = append(delays, float64(o.AssignFrame-o.ArrivalFrame))
			}
		}
		return mean(delays)
	}
	fmt.Println("mean delay by half hour (healthy vs outage):")
	for lo := 0; lo < 180; lo += 30 {
		fmt.Printf("%3d-%3d min: %6.2f vs %6.2f\n",
			lo, lo+30, halfHourDelay(healthy, lo), halfHourDelay(degraded, lo))
	}
	// Output:
	// healthy      served  892/923  abandoned  31  mean delay  2.63 min
	// with outage  served  823/923  abandoned 100  mean delay  4.02 min
	// mean delay by half hour (healthy vs outage):
	//   0- 30 min:   2.22 vs   2.22
	//  30- 60 min:   3.63 vs   2.27
	//  60- 90 min:   4.90 vs   5.90
	//  90-120 min:   3.20 vs  10.80
	// 120-150 min:   0.32 vs   3.52
	// 150-180 min:   0.24 vs   0.25
}

// ExampleSimulator_Step drives a live simulator the way dispatchd does:
// it starts with an empty request book, injects ride requests minute by
// minute, runs one stable-matching dispatch round per Step, and reads
// fleet utilisation and ride outcomes between rounds.
func ExampleSimulator_Step() {
	city := stabledispatch.Boston()
	taxis, err := stabledispatch.GenerateTaxis(city, 25, 31)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := stabledispatch.NewSimulator(stabledispatch.SimConfig{
		Dispatcher: stabledispatch.NSTDP(),
		Params:     stabledispatch.DefaultParams(),
	}, taxis, nil)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(32))
	center := city.Bounds.Center()
	near := func(spread float64) stabledispatch.Point {
		return stabledispatch.Point{
			X: center.X + rng.NormFloat64()*spread,
			Y: center.Y + rng.NormFloat64()*spread,
		}
	}
	nextID := 0
	fmt.Println("minute  requests  idle  busy  served  riding")
	for minute := 1; minute <= 30; minute++ {
		for n := rng.Intn(5); n > 0; n-- {
			if err := sim.Inject(stabledispatch.Request{
				ID: nextID, Pickup: near(2), Dropoff: near(4),
			}); err != nil {
				log.Fatal(err)
			}
			nextID++
		}
		if err := sim.Step(); err != nil {
			log.Fatal(err)
		}
		if minute%5 != 0 {
			continue
		}

		idle := 0
		for _, v := range sim.TaxiViews() {
			if v.Idle {
				idle++
			}
		}
		snap := sim.Snapshot()
		riding := 0
		for _, o := range snap.Requests {
			if o.PickupFrame >= 0 && o.DropoffFrame < 0 {
				riding++
			}
		}
		fmt.Printf("%6d  %8d  %4d  %4d  %6d  %6d\n", minute,
			len(snap.Requests), idle, len(taxis)-idle, snap.ServedCount(), riding)
	}
	// Output:
	// minute  requests  idle  busy  served  riding
	//      5        14    11    14      14       7
	//     10        26     2    23      24      15
	//     15        37     0    25      26      21
	//     20        43     1    24      31      18
	//     25        45     3    22      34      14
	//     30        54     1    24      39      16
}

// mean is the examples' arithmetic mean; 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
