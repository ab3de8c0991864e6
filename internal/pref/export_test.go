package pref

// TaxiRowsSorted reports whether m has built its taxi preference order,
// which only TaxiEntries does.
func TaxiRowsSorted(m *Market) bool { return m.taxiOrder.rows != nil }
