// Package pref builds the passenger and taxi-driver interest models of
// the paper (§IV-A for non-sharing, §V-A for sharing) and exposes them as
// a generic two-sided matching Market consumed by package stable.
//
// A passenger request r_j prefers taxi t_i over t_i' iff
// D(t_i, r_j^s) < D(t_i', r_j^s): passengers only care about wait time. A
// taxi driver t_i prefers request r_j over r_j' iff
// D(t_i, r_j^s) − α·D(r_j^s, r_j^d) < D(t_i, r_j'^s) − α·D(r_j'^s, r_j'^d):
// the idle drive is an expense and the trip is the pay-off.
//
// Dummy partners (the paper's "no dispatch" / "no service" entries) are
// realised as acceptability thresholds: entries whose cost exceeds the
// threshold sit behind the dummy, are not stored in the Market, and can
// never be stably matched.
package pref

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// Params holds the interest-model coefficients from the paper.
type Params struct {
	// Alpha combines a taxi's expense (idle drive) with its pay-off
	// (trip distance). The paper's experiments use α = 1.
	Alpha float64
	// Beta combines a sharing passenger's wait with the extra detour
	// distance. The paper's experiments use β = 1.
	Beta float64
	// MaxPickup is the passenger-side dummy threshold: a taxi farther
	// than this from the pickup sits behind the passenger's dummy
	// entry. +Inf disables the threshold.
	MaxPickup float64
	// MaxNet is the taxi-side dummy threshold on
	// D(t,r^s) − α·D(r^s,r^d): requests with a larger (worse) value sit
	// behind the taxi's dummy entry. +Inf disables the threshold.
	MaxNet float64
}

// DefaultParams returns the coefficients used in the paper's evaluation:
// α = β = 1, a 10 km pickup threshold on the passenger side, and a taxi
// threshold of 2 km — a driver tolerates an idle drive of up to 2 km
// beyond α times the paid trip before preferring no dispatch.
func DefaultParams() Params {
	return Params{
		Alpha:     1,
		Beta:      1,
		MaxPickup: 10,
		MaxNet:    2,
	}
}

// Unbounded reports Params with both dummy thresholds disabled; every
// passenger-taxi pair is mutually acceptable, recovering the classic
// stable-marriage setting.
func Unbounded() Params {
	return Params{
		Alpha:     1,
		Beta:      1,
		MaxPickup: math.Inf(1),
		MaxNet:    math.Inf(1),
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.Alpha) || p.Alpha < 0:
		return fmt.Errorf("pref: alpha must be non-negative, got %v", p.Alpha)
	case math.IsNaN(p.Beta) || p.Beta < 0:
		return fmt.Errorf("pref: beta must be non-negative, got %v", p.Beta)
	case math.IsNaN(p.MaxPickup):
		return fmt.Errorf("pref: max pickup threshold is NaN")
	case math.IsNaN(p.MaxNet):
		return fmt.Errorf("pref: max net threshold is NaN")
	}
	return nil
}

// Market is a two-sided matching instance between R requests and T
// taxis that stores only the mutually acceptable pairs. A pair behind
// either side's dummy is never proposed to and never matched (Theorem 1,
// Property 1), so it carries no information the matching needs; on a
// city frame that leaves a few percent of the R·T cells.
//
// The pairs sit in compressed-row form, once per side. Request j's
// entries are byReq[reqStart[j]:reqStart[j+1]], most preferred first:
// lowest request cost, ties to the lower taxi index. Taxi i's entries are
// byTaxi[taxiStart[i]:taxiStart[i+1]] in the order the market was built
// in; its preference order (lowest taxi cost, ties to the lower request
// index) is materialised on first demand, because the passenger-proposing
// algorithms never read it: the receiving taxi compares costs (Better).
// Every entry carries both sides' costs, so the receiving side of a
// proposal compares costs without a lookup. A counterparty behind the
// dummy ranks after every acceptable one, and such counterparties rank
// among themselves by index. The orders are strict, which keeps every
// algorithm in package stable deterministic.
//
// A Market is safe for concurrent reads, and copies of it share the
// taxi preference order once built.
type Market struct {
	reqStart, taxiStart []int
	byReq, byTaxi       []Entry
	taxiOrder           *taxiOrder
}

// taxiOrder holds byTaxi with every row sorted into the taxi's
// preference order, built once by the first TaxiEntries call. It is a
// sorted copy, so readers of the build-order rows (TaxiRank) never race
// the sort.
type taxiOrder struct {
	once sync.Once
	rows []Entry
	buf  []Entry // the array rows is built in: the spent market's, or nil
}

// Entry is one mutually acceptable pair as it sits on one side's
// preference list.
type Entry struct {
	// Partner is the counterparty: a taxi index on a request's list, a
	// request index on a taxi's list.
	Partner int
	// ReqCost is the cost the request assigns the taxi; for the
	// non-sharing model this is D(t_i, r_j^s), which is also the
	// passenger-dissatisfaction metric of the paper.
	ReqCost float64
	// TaxiCost is the cost the taxi assigns the request; for the
	// non-sharing model this is D(t_i, r_j^s) − α·D(r_j^s, r_j^d), the
	// taxi-dissatisfaction metric.
	TaxiCost float64
}

// Pair is one mutually acceptable request–taxi pair with both sides'
// costs, the input of NewMarket.
type Pair struct {
	Req, Taxi         int
	ReqCost, TaxiCost float64
}

// Better reports whether a counterparty with index k1 at cost c1 is
// strictly preferred over k2 at cost c2: the lower cost wins and a cost
// tie (−0 against +0 included) goes to the lower index. Both sides of
// every market order their lists this way.
func Better(c1 float64, k1 int, c2 float64, k2 int) bool {
	return c1 < c2 || (!(c1 > c2) && k1 < k2)
}

// NewMarket returns the market whose mutually acceptable pairs are
// pairs, given in any order; every other request–taxi pair sits behind a
// dummy. It panics on an index outside the nReq × nTaxi market; Validate
// reports duplicate pairs and NaN costs.
func NewMarket(nReq, nTaxi int, pairs []Pair) *Market {
	taxiStart := make([]int, nTaxi+1)
	for _, p := range pairs {
		if p.Req < 0 || p.Req >= nReq || p.Taxi < 0 || p.Taxi >= nTaxi {
			panic(fmt.Sprintf("pref: pair (r%d, t%d) outside a %dx%d market", p.Req, p.Taxi, nReq, nTaxi))
		}
		taxiStart[p.Taxi+1]++
	}
	for i := 0; i < nTaxi; i++ {
		taxiStart[i+1] += taxiStart[i]
	}
	next := slices.Clone(taxiStart[:nTaxi])
	byTaxi := make([]Entry, len(pairs))
	for _, p := range pairs {
		byTaxi[next[p.Taxi]] = Entry{Partner: p.Req, ReqCost: p.ReqCost, TaxiCost: p.TaxiCost}
		next[p.Taxi]++
	}
	m := assemble(Market{}, nReq, taxiStart, byTaxi)
	return &m
}

// BuildMarket assembles a market in one pass over the taxis. For taxi
// i, accept appends to dst the entries of i's mutually acceptable
// requests, each carrying both sides' costs, and returns dst. Only the
// accepted pairs are ever stored. bound is an upper bound on the entries
// accept appends over all taxis: the taxi-side slab is allocated once at
// that capacity (a larger total still builds, by regrowing it).
func BuildMarket(nReq, nTaxi, bound int, accept func(i int, dst []Entry) []Entry) Market {
	return buildMarket(Market{}, nReq, nTaxi, bound, accept)
}

// buildMarket is BuildMarket into spent's storage; a zero spent
// allocates.
func buildMarket(spent Market, nReq, nTaxi, bound int, accept func(i int, dst []Entry) []Entry) Market {
	taxiStart := slices.Grow(spent.taxiStart[:0], nTaxi+1)[:nTaxi+1]
	taxiStart[0] = 0
	byTaxi := spent.byTaxi[:0]
	if byTaxi == nil || cap(byTaxi) < bound {
		byTaxi = make([]Entry, 0, max(bound, 2*cap(byTaxi)))
	}
	for i := 0; i < nTaxi; i++ {
		byTaxi = accept(i, byTaxi)
		taxiStart[i+1] = len(byTaxi)
	}
	return assemble(spent, nReq, taxiStart, byTaxi)
}

// assemble completes a market from its taxi-side entries, grouped by taxi
// in taxiStart's rows but in any order within a row: it derives the
// request-side rows by a counting sort on the request index and sorts
// each into the request's preference order, in the request-side arrays
// and taxi-order storage of spent (a zero spent allocates). The taxi
// rows stay as given until TaxiEntries first needs their order.
func assemble(spent Market, nReq int, taxiStart []int, byTaxi []Entry) Market {
	m := Market{
		reqStart:  slices.Grow(spent.reqStart[:0], nReq+1)[:nReq+1],
		taxiStart: taxiStart,
		byReq:     slices.Grow(spent.byReq[:0], len(byTaxi))[:len(byTaxi)],
		byTaxi:    byTaxi,
		taxiOrder: new(taxiOrder),
	}
	if spent.taxiOrder != nil {
		m.taxiOrder.buf = spent.taxiOrder.rows
	}
	// Count each request's entries into reqStart, prefix-sum the counts
	// into each row's end, then fill taxis and their entries in
	// descending order: every end walks back to its row's start, and
	// each row comes out in ascending taxi order.
	clear(m.reqStart)
	for _, e := range byTaxi {
		m.reqStart[e.Partner]++
	}
	for j := 1; j <= nReq; j++ {
		m.reqStart[j] += m.reqStart[j-1]
	}
	for i := m.NumTaxis() - 1; i >= 0; i-- {
		row := byTaxi[taxiStart[i]:taxiStart[i+1]]
		for k := len(row) - 1; k >= 0; k-- {
			e := row[k]
			m.reqStart[e.Partner]--
			m.byReq[m.reqStart[e.Partner]] = Entry{Partner: i, ReqCost: e.ReqCost, TaxiCost: e.TaxiCost}
		}
	}
	for j := 0; j < nReq; j++ {
		sortRow(m.ReqEntries(j), false)
	}
	return m
}

// Transpose returns m with the sides swapped: m's taxi i is the
// result's request i and m's request j its taxi j, each pair keeping
// both costs (ReqCost and TaxiCost trade places). The result's request
// rows are m's taxi rows in m's taxi order, so Algorithm 1 on it is the
// taxi-proposing mirror of Algorithm 1 on m.
func (m *Market) Transpose() *Market {
	byTaxi := make([]Entry, len(m.byReq))
	for k, e := range m.byReq {
		byTaxi[k] = Entry{Partner: e.Partner, ReqCost: e.TaxiCost, TaxiCost: e.ReqCost}
	}
	t := assemble(Market{}, m.NumTaxis(), m.reqStart, byTaxi)
	return &t
}

// NumRequests returns R.
func (m *Market) NumRequests() int { return max(len(m.reqStart)-1, 0) }

// NumTaxis returns T.
func (m *Market) NumTaxis() int { return max(len(m.taxiStart)-1, 0) }

// ReqEntries returns request j's mutually acceptable taxis, most
// preferred first. The slice aliases the market; callers must not modify
// it.
func (m *Market) ReqEntries(j int) []Entry { return m.byReq[m.reqStart[j]:m.reqStart[j+1]] }

// TaxiEntries returns taxi i's mutually acceptable requests, most
// preferred first. The slice aliases the market; callers must not modify
// it. The first call on a market sorts a copy of every taxi row, O(P log
// P) for P pairs; Algorithm 1 (either side proposing) never needs it,
// only TaxiPrefList, Validate and the decision tracer do.
func (m *Market) TaxiEntries(i int) []Entry {
	o := m.taxiOrder
	o.once.Do(func() {
		o.rows = append(o.buf[:0], m.byTaxi...)
		for k := 0; k < m.NumTaxis(); k++ {
			sortRow(o.rows[m.taxiStart[k]:m.taxiStart[k+1]], true)
		}
	})
	return o.rows[m.taxiStart[i]:m.taxiStart[i+1]]
}

// ReqRank returns taxi i's position on request j's preference list (0 =
// most preferred), or -1 when the pair is not mutually acceptable.
func (m *Market) ReqRank(j, i int) int { return position(m.ReqEntries(j), i) }

// TaxiRank returns request j's position on taxi i's preference list, or
// -1 when the pair is not mutually acceptable. It never sorts a taxi
// row: it finds the pair in i's build-order row and counts the entries i
// prefers over j, which, the taxi order being total, is j's position in
// the sorted row. Both scans read the whole row where a scan of the
// sorted row stops at the pair, so a caller ranking many pairs of one
// market (the decision tracer) scans TaxiEntries instead.
func (m *Market) TaxiRank(i, j int) int {
	row := m.byTaxi[m.taxiStart[i]:m.taxiStart[i+1]]
	k := position(row, j)
	if k < 0 {
		return -1
	}
	n := 0
	for _, e := range row {
		if Better(e.TaxiCost, e.Partner, row[k].TaxiCost, j) {
			n++
		}
	}
	return n
}

func position(list []Entry, partner int) int {
	for r, e := range list {
		if e.Partner == partner {
			return r
		}
	}
	return -1
}

// Validate checks the market's invariants: row bounds that cover the
// entries, in-range partners, no NaN cost, and every row strictly in
// preference order, so that no pair is stored twice.
func (m *Market) Validate() error {
	r, t := m.NumRequests(), m.NumTaxis()
	if len(m.reqStart) != r+1 || len(m.taxiStart) != t+1 || m.reqStart[r] != len(m.byReq) || m.taxiStart[t] != len(m.byTaxi) {
		return fmt.Errorf("pref: market rows disagree with its %d request / %d taxi entries", len(m.byReq), len(m.byTaxi))
	}
	check := func(side string, owner int, row []Entry, n int, cost func(Entry) float64) error {
		for k, e := range row {
			switch {
			case e.Partner < 0 || e.Partner >= n:
				return fmt.Errorf("pref: %s %d lists partner %d outside [0, %d)", side, owner, e.Partner, n)
			case math.IsNaN(e.ReqCost) || math.IsNaN(e.TaxiCost):
				return fmt.Errorf("pref: %s %d has a NaN cost for partner %d", side, owner, e.Partner)
			case k > 0 && !Better(cost(row[k-1]), row[k-1].Partner, cost(e), e.Partner):
				return fmt.Errorf("pref: %s %d lists partner %d out of preference order or twice", side, owner, e.Partner)
			}
		}
		return nil
	}
	for j := 0; j < r; j++ {
		if err := check("request", j, m.ReqEntries(j), t, func(e Entry) float64 { return e.ReqCost }); err != nil {
			return err
		}
	}
	for i := 0; i < t; i++ {
		if err := check("taxi", i, m.TaxiEntries(i), r, func(e Entry) float64 { return e.TaxiCost }); err != nil {
			return err
		}
	}
	return nil
}

// MutualOK reports whether request j and taxi i are each ahead of the
// other's dummy entry; only such pairs can appear in a stable matching.
// It scans request j's list.
func (m *Market) MutualOK(j, i int) bool { return m.ReqRank(j, i) >= 0 }

// ReqPrefers reports whether request j strictly prefers taxi i1 over i2.
func (m *Market) ReqPrefers(j, i1, i2 int) bool {
	return rankBefore(m.ReqRank(j, i1), i1, m.ReqRank(j, i2), i2)
}

// TaxiPrefers reports whether taxi i strictly prefers request j1 over j2.
func (m *Market) TaxiPrefers(i, j1, j2 int) bool {
	return rankBefore(m.TaxiRank(i, j1), j1, m.TaxiRank(i, j2), j2)
}

// rankBefore orders two counterparties by list position, one behind the
// dummy (rank -1) after every acceptable one and by index among
// themselves.
func rankBefore(r1, k1, r2, k2 int) bool {
	if r1 < 0 {
		r1 = math.MaxInt
	}
	if r2 < 0 {
		r2 = math.MaxInt
	}
	if r1 != r2 {
		return r1 < r2
	}
	return k1 < k2
}

// ReqPrefList returns request j's preference list: the mutually
// acceptable taxis from most to least preferred. Taxis behind either
// dummy are omitted (they can never be stably matched to j).
func (m *Market) ReqPrefList(j int) []int { return partners(m.ReqEntries(j)) }

// TaxiPrefList returns taxi i's preference list: the mutually acceptable
// requests from most to least preferred.
func (m *Market) TaxiPrefList(i int) []int { return partners(m.TaxiEntries(i)) }

func partners(list []Entry) []int {
	out := make([]int, len(list))
	for k, e := range list {
		out[k] = e.Partner
	}
	return out
}

// Instance is a non-sharing dispatch instance: the market derived from
// the paper's §IV-A interest model, plus the raw distances the simulator
// needs for metric reporting.
type Instance struct {
	Market

	Requests []fleet.Request
	Taxis    []fleet.Taxi
	// TripDist[j] = D(r_j^s, r_j^d).
	TripDist []float64
	Params   Params

	plane *costplane.Plane
}

// PickupDist returns D(t_i, r_j^s), or +Inf where the instance's plane
// pruned the cell (such a pair is never mutually acceptable under
// finite thresholds).
func (inst *Instance) PickupDist(i, j int) float64 { return inst.plane.PickupDist(i, j) }

// Plane builds the §IV-A distance plane of reqs × taxis: the request
// pass for the solo trips, then the taxi pass keeping request j's cells
// within min(MaxPickup, MaxNet + α·trip_j), the largest pickup both
// thresholds can accept (costplane.Threshold). It builds into spent's
// storage and returns spent, so the caller must be done with spent and
// every instance on it; a nil spent allocates. workers sizes the pool
// as costplane.Config.Workers does.
func Plane(spent *costplane.Plane, reqs []fleet.Request, taxis []fleet.Taxi, metric geo.Metric, p Params, workers int) *costplane.Plane {
	return costplane.Threshold(spent, reqs, taxis, metric, workers, func(trips, dst []float64) []float64 {
		return planeRadii(p, trips, dst)
	})
}

// planeRadii appends Plane's radii to dst and returns it: MaxPickup
// (+Inf, no prune, when it is ≤ 0), tightened to the costplane.Radius of
// the net test. MaxNet = −Inf gives a NaN net radius, which keeps
// MaxPickup's.
func planeRadii(p Params, trips, dst []float64) []float64 {
	base := math.Inf(1)
	if p.MaxPickup > 0 {
		base = p.MaxPickup
	}
	for _, trip := range trips {
		r := base
		if net := costplane.Radius(p.MaxNet, -p.Alpha*trip); net < base {
			r = net
		}
		dst = append(dst, r)
	}
	return dst
}

// NewInstance computes the non-sharing market for the given requests and
// taxis under metric and params. A pair is mutually acceptable iff the
// pickup distance is within params.MaxPickup, the taxi's net cost is
// within params.MaxNet, and the taxi has enough seats (the paper pushes
// seat-infeasible pairs behind both dummies).
//
// The full (unpruned) distance plane is built serially; dispatchers on
// the per-frame hot path instead build the pruned plane once per frame
// and the instance on it (Plane and Refill, memoised by sim.Frame, which
// builds both into the last frame's).
func NewInstance(reqs []fleet.Request, taxis []fleet.Taxi, metric geo.Metric, params Params) (*Instance, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return FromPlane(costplane.Build(reqs, taxis, metric, costplane.Config{Workers: 1}), params)
}

// FromPlane builds the non-sharing instance from an already-computed
// distance plane, which the instance keeps (planes are immutable after
// Build). The Plane under params, or a plane pruned at any radius no
// smaller, yields the same market as an unpruned one: a pruned cell's
// true distance exceeds the radius, so it fails the pickup or the net
// threshold exactly like the +Inf the plane reports — the pair sits
// behind a dummy either way, so preference lists are unchanged.
func FromPlane(pl *costplane.Plane, params Params) (*Instance, error) {
	return Refill(nil, pl, params)
}

// Refill builds FromPlane's instance into spent's storage and returns
// spent, so the caller must be done with spent and every row read from
// its market; a nil spent allocates, which is FromPlane. On an error
// spent is left as it was.
func Refill(spent *Instance, pl *costplane.Plane, params Params) (*Instance, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	inst := spent
	if inst == nil {
		inst = new(Instance)
	}
	*inst = Instance{
		Market:   inst.Market,
		Requests: pl.Requests,
		Taxis:    pl.Taxis,
		TripDist: pl.Trips(),
		Params:   params,
		plane:    pl,
	}
	inst.Market = buildNonSharingMarket(inst)
	return inst, nil
}

// buildNonSharingMarket builds inst's market into the storage of the
// market inst holds. It keeps a pair iff the taxi has the seats, the
// pickup distance is within params.MaxPickup and the taxi's net cost
// D(t_i, r_j^s) − α·D(r_j^s, r_j^d) is within params.MaxNet. It walks
// each taxi's stored cells and takes both costs from the cell's own
// distance. A cell the plane did not store reads +Inf, which passes
// only when both thresholds are +Inf; such a market visits every cell.
func buildNonSharingMarket(inst *Instance) Market {
	p := inst.Params
	everyCell := math.IsInf(p.MaxPickup, 1) && math.IsInf(p.MaxNet, 1)
	var full []costplane.Entry
	accept := func(i int, dst []Entry) []Entry {
		seats := inst.Taxis[i].Capacity()
		row := inst.plane.PickupRow(i)
		if everyCell {
			full = inst.plane.FullRow(i, full[:0])
			row = full
		}
		for _, e := range row {
			pickup := e.Dist
			if pickup > p.MaxPickup {
				continue
			}
			if net := pickup - p.Alpha*inst.TripDist[e.Req]; net <= p.MaxNet && inst.Requests[e.Req].SeatCount() <= seats {
				dst = append(dst, Entry{Partner: int(e.Req), ReqCost: pickup, TaxiCost: net})
			}
		}
		return dst
	}
	// Each stored cell yields at most one entry; a market that visits
	// every cell may fill all of them.
	bound := inst.plane.Entries()
	if everyCell {
		bound = inst.plane.Cells()
	}
	return buildMarket(inst.Market, len(inst.Requests), len(inst.Taxis), bound, accept)
}

// PassengerDissatisfaction returns the paper's non-sharing passenger
// metric for dispatching the taxi at pos to request r: D(t, r^s).
func PassengerDissatisfaction(pos geo.Point, r fleet.Request, metric geo.Metric) float64 {
	return metric.Distance(pos, r.Pickup)
}

// TaxiDissatisfaction returns the paper's non-sharing taxi metric:
// D(t, r^s) − α·D(r^s, r^d).
func TaxiDissatisfaction(pos geo.Point, r fleet.Request, metric geo.Metric, alpha float64) float64 {
	return metric.Distance(pos, r.Pickup) - alpha*r.TripDistance(metric)
}

// SplitOversized divides requests whose party exceeds maxSeats into
// multiple requests at the same locations, each needing at most maxSeats
// — the paper's §IV-A handling for parties no single taxi can carry
// ("r_j can be divided into multiple requests, each of which asks for a
// taxi with fewer seats"). New requests take IDs from nextID upward; the
// caller guarantees those are unused. Requests within the limit pass
// through unchanged.
func SplitOversized(reqs []fleet.Request, maxSeats int, nextID int) []fleet.Request {
	if maxSeats < 1 {
		maxSeats = 1
	}
	out := make([]fleet.Request, 0, len(reqs))
	for _, r := range reqs {
		seats := r.SeatCount()
		if seats <= maxSeats {
			out = append(out, r)
			continue
		}
		first := true
		for seats > 0 {
			part := r
			part.Seats = seats
			if part.Seats > maxSeats {
				part.Seats = maxSeats
			}
			if first {
				first = false
			} else {
				part.ID = nextID
				nextID++
			}
			out = append(out, part)
			seats -= part.Seats
		}
	}
	return out
}
