// Package fault generates deterministic, seeded fault schedules for the
// simulator: mid-route taxi breakdowns, driver cancellations after
// assignment, and passenger cancellations before pickup.
//
// The O2O setting the paper targets is defined by churn — privately
// owned taxis go dark mid-shift, drivers reject fares they already
// accepted, passengers give up before pickup — yet the dispatch model
// assumes every accepted assignment completes. A Schedule closes that
// gap for experiments: it is a pure function of (Seed, entity IDs), so
// a run with a fixed seed replays the exact same fault sequence
// regardless of wall-clock, goroutine scheduling, or map iteration
// order, which makes chaos experiments diffable and regressions
// bisectable.
//
// A Schedule is composed into a run through sim.Config.Faults:
//
//	sched, _ := fault.New(fault.Config{Seed: 7, BreakdownRate: 0.01})
//	cfg := sim.Config{Dispatcher: d, Faults: sched}
//
// The decision functions are stateless and safe for concurrent use.
package fault

import "fmt"

// Config parameterises a fault schedule. The zero value injects no
// faults.
type Config struct {
	// Seed keys every decision; two schedules with the same seed and
	// rates make identical decisions.
	Seed int64 `json:"seed"`
	// BreakdownRate is the per-frame hazard that a busy taxi breaks
	// down mid-route (0 disables breakdowns). With rate h, the chance a
	// taxi survives an n-frame trip is (1-h)^n.
	BreakdownRate float64 `json:"breakdownRate"`
	// DriverCancelRate is the probability that a driver abandons an
	// assignment they accepted, before pickup (0 disables).
	DriverCancelRate float64 `json:"driverCancelRate"`
	// PassengerCancelRate is the probability that a passenger cancels
	// their request before pickup (0 disables).
	PassengerCancelRate float64 `json:"passengerCancelRate"`
	// RepairFrames is how long a broken-down taxi stays out of service.
	// Defaults to DefaultRepairFrames.
	RepairFrames int `json:"repairFrames"`
	// MaxCancelDelayFrames bounds how many frames after arrival (for
	// passengers) or assignment (for drivers) a cancellation fires; the
	// actual delay is uniform in [1, MaxCancelDelayFrames]. Defaults to
	// DefaultMaxCancelDelay.
	MaxCancelDelayFrames int `json:"maxCancelDelayFrames"`
}

// Defaults for the optional Config durations.
const (
	DefaultRepairFrames   = 30
	DefaultMaxCancelDelay = 8
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"BreakdownRate", c.BreakdownRate},
		{"DriverCancelRate", c.DriverCancelRate},
		{"PassengerCancelRate", c.PassengerCancelRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.RepairFrames < 0 {
		return fmt.Errorf("fault: RepairFrames %d is negative", c.RepairFrames)
	}
	if c.MaxCancelDelayFrames < 0 {
		return fmt.Errorf("fault: MaxCancelDelayFrames %d is negative", c.MaxCancelDelayFrames)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RepairFrames == 0 {
		c.RepairFrames = DefaultRepairFrames
	}
	if c.MaxCancelDelayFrames == 0 {
		c.MaxCancelDelayFrames = DefaultMaxCancelDelay
	}
	return c
}

// Schedule is a deterministic fault oracle. It implements the
// simulator's FaultInjector interface.
type Schedule struct {
	cfg Config
}

// New builds a schedule from the config.
func New(cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Schedule{cfg: cfg}, nil
}

// Config returns the (default-filled) configuration in force.
func (s *Schedule) Config() Config { return s.cfg }

// Domain-separation salts so the three fault classes draw independent
// decisions even for coinciding IDs.
const (
	saltPassenger uint64 = 0xa5a5_0001
	saltDriver    uint64 = 0xa5a5_0002
	saltBreakdown uint64 = 0xa5a5_0003
	saltDelay     uint64 = 0xa5a5_0004
)

// PassengerCancelAfter reports whether the passenger of the given
// request cancels before pickup, and if so how many frames after
// arrival the cancellation fires (≥ 1).
func (s *Schedule) PassengerCancelAfter(requestID int) (int, bool) {
	if s.cfg.PassengerCancelRate <= 0 {
		return 0, false
	}
	h := s.hash(saltPassenger, uint64(int64(requestID)), 0)
	if toUnit(h) >= s.cfg.PassengerCancelRate {
		return 0, false
	}
	return s.delay(saltPassenger, uint64(int64(requestID)), 0), true
}

// DriverCancelAfter reports whether the driver of taxiID abandons the
// assignment of requestID made at assignFrame, and if so how many
// frames after assignment the cancellation fires (≥ 1). A cancellation
// only takes effect if the passenger has not been picked up by then.
func (s *Schedule) DriverCancelAfter(taxiID, requestID, assignFrame int) (int, bool) {
	if s.cfg.DriverCancelRate <= 0 {
		return 0, false
	}
	a := uint64(int64(taxiID))<<32 ^ uint64(int64(requestID))
	h := s.hash(saltDriver, a, uint64(int64(assignFrame)))
	if toUnit(h) >= s.cfg.DriverCancelRate {
		return 0, false
	}
	return s.delay(saltDriver, a, uint64(int64(assignFrame))), true
}

// Breakdown reports whether the (busy) taxi breaks down at the given
// frame, and if so how long the repair keeps it out of service.
func (s *Schedule) Breakdown(taxiID, frame int) (int, bool) {
	if s.cfg.BreakdownRate <= 0 {
		return 0, false
	}
	h := s.hash(saltBreakdown, uint64(int64(taxiID)), uint64(int64(frame)))
	if toUnit(h) >= s.cfg.BreakdownRate {
		return 0, false
	}
	return s.cfg.RepairFrames, true
}

// delay derives a uniform cancellation delay in [1, MaxCancelDelay]
// from an independent hash stream.
func (s *Schedule) delay(salt, a, b uint64) int {
	h := s.hash(salt^saltDelay, a, b)
	return 1 + int(h%uint64(s.cfg.MaxCancelDelayFrames))
}

// hash chains the seed, a domain salt, and two operands through
// splitmix64 finalisers.
func (s *Schedule) hash(salt, a, b uint64) uint64 {
	h := mix64(uint64(s.cfg.Seed) ^ salt)
	h = mix64(h ^ a)
	return mix64(h ^ b)
}

// mix64 is the splitmix64 finaliser: a cheap, well-distributed 64-bit
// permutation.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// toUnit maps a hash to the unit interval [0, 1).
func toUnit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
