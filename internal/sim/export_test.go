package sim

// StorageOf returns the Storage f's dispatcher took, or nil if none did.
func StorageOf(f *Frame) *Storage {
	f.planeMu.Lock()
	defer f.planeMu.Unlock()
	return f.own
}
