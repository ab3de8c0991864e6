package sim

import (
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
)

// StorageOf returns the Storage f's dispatcher took, or nil if none did.
func StorageOf(f *Frame) *Storage {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.taken {
		return nil
	}
	return f.st
}

// ReportOf returns the market f's dispatcher reported (ReportMarket),
// nil if none stands.
func ReportOf(f *Frame) (*pref.Market, []share.Unit) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.market, f.units
}
