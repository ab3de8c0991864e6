package dtrace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/stable"
)

func TestRecordAndTrace(t *testing.T) {
	r := New(8)
	r.SetFrame(7)
	e := Ev(KindPropose)
	e.TaxiID = 3
	e.ReqRank = 0
	e.Outcome = "accepted"
	r.Record(42, e)
	r.Lifecycle(42, 7, 3, "assign")

	tr, ok := r.Trace(42)
	if !ok {
		t.Fatal("trace 42 missing")
	}
	if len(tr.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(tr.Events))
	}
	if tr.Events[0].Frame != 7 {
		t.Fatalf("frame not stamped: %+v", tr.Events[0])
	}
	if tr.Events[0].Seq >= tr.Events[1].Seq {
		t.Fatal("sequence numbers must be monotone")
	}
	if _, ok := r.Trace(99); ok {
		t.Fatal("unknown request must report !ok")
	}
}

func TestEventRingEviction(t *testing.T) {
	r := New(3)
	for id := 1; id <= 5; id++ {
		r.Record(id, Ev(KindPropose))
	}
	var ids []int
	for _, tr := range r.Snapshot() {
		ids = append(ids, tr.RequestID)
	}
	if len(ids) != 3 || ids[0] != 3 || ids[2] != 5 {
		t.Fatalf("want oldest-first [3 4 5] after eviction, got %v", ids)
	}
	if _, ok := r.Trace(1); ok {
		t.Fatal("request 1 should have been evicted")
	}

	// One busy request evicts the others' events, then its own oldest:
	// the bound is on events, whichever requests they belong to.
	for k := 0; k < 5; k++ {
		r.Record(5, Ev(KindPropose))
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].RequestID != 5 || len(snap[0].Events) != 3 {
		t.Fatalf("want request 5's last 3 events only, got %+v", snap)
	}
	if first := snap[0].Events[0].Seq; first != 8 {
		t.Fatalf("oldest retained event has seq %d, want 8", first)
	}
	if st := r.Stats(); st.Events != 10 || st.Evicted != 7 {
		t.Fatalf("stats %+v: want 10 events, 7 evicted", st)
	}
}

func TestCertificateRing(t *testing.T) {
	r := New(4)
	r.slots = make([]frameSlot, 2)
	for f := 1; f <= 3; f++ {
		r.AddFrameNote(f, "note")
		r.PutCertificate(&Certificate{Frame: f, Stable: true})
	}
	if _, ok := r.Certificate(1); ok {
		t.Fatal("frame 1 certificate should have been evicted")
	}
	c, ok := r.Certificate(3)
	if !ok || !c.Stable {
		t.Fatalf("frame 3 certificate missing or wrong: %+v ok=%v", c, ok)
	}
	if len(c.Notes) != 1 || c.Notes[0] != "note" {
		t.Fatalf("frame note not attached: %+v", c.Notes)
	}
	if frames := r.CertifiedFrames(); len(frames) != 2 || frames[0] != 2 {
		t.Fatalf("want frames [2 3], got %v", frames)
	}
}

// TestConcurrentWritersAndSnapshots hammers one recorder from many
// writers while readers snapshot — run under -race this is the
// recorder's data-race check; without it, it still verifies the event
// bound holds under interleaving.
func TestConcurrentWritersAndSnapshots(t *testing.T) {
	r := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				e := Ev(KindPropose)
				e.TaxiID = k % 7
				r.Record(w*1000+k%100, e)
				if k%50 == 0 {
					r.SetFrame(k)
					r.PutCertificate(&Certificate{Frame: w*1000 + k})
					r.AddFrameNote(w*1000+k, "n")
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 200; k++ {
			if n := retainedEvents(r); n > 64 {
				t.Errorf("ring exceeds capacity: %d events", n)
				return
			}
			r.Trace(k % 100)
			r.Certificate(k)
			r.Stats()
			r.CertifiedFrames()
		}
	}()
	wg.Wait()
	<-done
	if n := retainedEvents(r); n != 64 {
		t.Fatalf("full ring retains %d events, want 64", n)
	}
}

// retainedEvents counts the events of every retained trace.
func retainedEvents(r *Recorder) int {
	n := 0
	for _, tr := range r.Snapshot() {
		n += len(tr.Events)
	}
	return n
}

// seededMarket builds a real non-sharing market from deterministic
// random requests and taxis.
func seededMarket(t *testing.T, seed int64, nReq, nTaxi int) *pref.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]fleet.Request, nReq)
	for j := range reqs {
		reqs[j] = fleet.Request{
			ID:      100 + j,
			Pickup:  geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20},
			Dropoff: geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20},
			Seats:   1,
		}
	}
	taxis := make([]fleet.Taxi, nTaxi)
	for i := range taxis {
		taxis[i] = fleet.Taxi{
			ID:    200 + i,
			Pos:   geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20},
			Seats: 3,
		}
	}
	inst, err := pref.NewInstance(reqs, taxis, geo.EuclidMetric, pref.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestCertifyAgreesWithIsStable is the satellite invariant: on seeded
// scenarios the certificate must agree with the offline blocking-pair
// checker, both on stable matchings (GS output) and on deliberately
// destabilized ones.
func TestCertifyAgreesWithIsStable(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		inst := seededMarket(t, seed, 12, 9)
		reqIDs := make([]int, len(inst.Requests))
		for j, rq := range inst.Requests {
			reqIDs[j] = rq.ID
		}
		taxiIDs := make([]int, len(inst.Taxis))
		for i, tx := range inst.Taxis {
			taxiIDs[i] = tx.ID
		}

		m := stable.PassengerOptimal(&inst.Market)
		c := Certify(int(seed), &inst.Market, m.ReqPartner, reqIDs, taxiIDs)
		err := stable.IsStable(&inst.Market, m)
		if (err == nil) != c.Stable {
			t.Fatalf("seed %d: IsStable err=%v but certificate stable=%v", seed, err, c.Stable)
		}
		if !c.Stable {
			t.Fatalf("seed %d: GS matching certified unstable: %+v", seed, c.Violations)
		}

		// Destabilize: swap two matched requests' partners. If both
		// matchings were matched, the passenger-optimal property means a
		// swap almost always creates a blocking pair; require the
		// certificate and IsStable to agree either way.
		perturbed := m.Clone()
		var matched []int
		for j, p := range perturbed.ReqPartner {
			if p != stable.Unmatched {
				matched = append(matched, j)
			}
		}
		if len(matched) < 2 {
			continue
		}
		a, b := matched[0], matched[1]
		ta, tb := perturbed.ReqPartner[a], perturbed.ReqPartner[b]
		perturbed.ReqPartner[a], perturbed.ReqPartner[b] = tb, ta
		perturbed.TaxiPartner[ta], perturbed.TaxiPartner[tb] = b, a

		c2 := Certify(int(seed), &inst.Market, perturbed.ReqPartner, reqIDs, taxiIDs)
		err2 := stable.IsStable(&inst.Market, perturbed)
		if (err2 == nil) != c2.Stable {
			t.Fatalf("seed %d perturbed: IsStable err=%v but certificate stable=%v", seed, err2, c2.Stable)
		}
		if !c2.Stable {
			v := c2.Violations[0]
			if v.Detail == "" || c2.ViolationsTotal < 1 {
				t.Fatalf("seed %d: violation lacks evidence: %+v", seed, v)
			}
		}
	}
}

// TestCertifyFlagsInjectedBlockingPair builds a 2x2 market with a known
// blocking pair and checks the certificate names it with correct ranks.
func TestCertifyFlagsInjectedBlockingPair(t *testing.T) {
	// Taxi 0 is closest to request 0 and both prefer each other, but we
	// match request 0 with taxi 1 and request 1 with taxi 0.
	reqs := []fleet.Request{
		{ID: 10, Pickup: geo.Point{X: 0, Y: 0}, Dropoff: geo.Point{X: 5, Y: 0}, Seats: 1},
		{ID: 11, Pickup: geo.Point{X: 9, Y: 0}, Dropoff: geo.Point{X: 5, Y: 5}, Seats: 1},
	}
	taxis := []fleet.Taxi{
		{ID: 20, Pos: geo.Point{X: 0, Y: 1}, Seats: 3},
		{ID: 21, Pos: geo.Point{X: 9, Y: 1}, Seats: 3},
	}
	inst, err := pref.NewInstance(reqs, taxis, geo.EuclidMetric, pref.Unbounded())
	if err != nil {
		t.Fatal(err)
	}
	c := Certify(1, &inst.Market, []int{1, 0}, []int{10, 11}, []int{20, 21})
	if c.Stable {
		t.Fatal("crossed matching must be unstable")
	}
	found := false
	for _, v := range c.Violations {
		if v.RequestID == 10 && v.TaxiID == 20 {
			found = true
			if v.ReqRank != 0 || v.TaxiRank != 0 {
				t.Fatalf("blocking pair ranks wrong: %+v", v)
			}
			if v.ReqPartnerRank != 1 || v.TaxiPartnerRank != 1 {
				t.Fatalf("partner ranks wrong: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("violation (r10, t20) not reported: %+v", c.Violations)
	}
	if err := stable.IsStable(&inst.Market, stable.Matching{
		ReqPartner:  []int{1, 0},
		TaxiPartner: []int{1, 0},
	}); err == nil {
		t.Fatal("IsStable disagrees: expected blocking pair")
	}
}

func TestTrivialCertificate(t *testing.T) {
	c := Trivial(5, 0, 3, "no pending requests")
	if !c.Stable || c.Frame != 5 || len(c.Notes) != 1 {
		t.Fatalf("bad trivial certificate: %+v", c)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New(8)
	r.Lifecycle(1, 2, -1, "request")
	e := Ev(KindPropose)
	e.Frame = 2
	e.TaxiID = 9
	e.ReqRank = 0
	e.Outcome = "accepted"
	r.Record(1, e)
	r.Lifecycle(1, 2, 9, "assign")
	r.Lifecycle(1, 4, 9, "pickup")
	r.Lifecycle(1, 8, 9, "dropoff")

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	var phases []string
	haveSlices := map[string]bool{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases = append(phases, ph)
		if ph == "X" {
			name, _ := ev["name"].(string)
			haveSlices[name] = true
		}
	}
	if !strings.Contains(strings.Join(phases, ""), "M") {
		t.Fatal("missing metadata events")
	}
	for _, want := range []string{"waiting", "en-route", "riding"} {
		if !haveSlices[want] {
			t.Fatalf("missing %q lifecycle slice; slices=%v", want, haveSlices)
		}
	}
}

// TestChromeInstantsKeepSeqOrder records two events of one request in a
// frame whose sequence numbers cross a multiple of 1000: the second
// must render after the first, and both inside the frame's millisecond.
func TestChromeInstantsKeepSeqOrder(t *testing.T) {
	r := New(8)
	for k := 0; k < 998; k++ {
		r.Lifecycle(2, 3, -1, "request")
	}
	r.Lifecycle(1, 3, -1, "request")
	r.Lifecycle(1, 3, 9, "assign")
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for _, e := range events {
		if e.Ph == "i" && e.Tid == 1 {
			ts = append(ts, e.Ts)
		}
	}
	if len(ts) != 2 || !(3000 <= ts[0] && ts[0] < ts[1] && ts[1] < 4000) {
		t.Fatalf("request 1's instants at %v; want two increasing timestamps in [3000, 4000)", ts)
	}
}
