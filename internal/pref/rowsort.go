package pref

// insertionCutoff is the row length at or below which sortRow sorts by
// insertion alone. Most rows of a city frame are this short: on the NYC
// day, rows of at most 16 entries hold 82% of all entries.
const insertionCutoff = 12

// before is Better on two entries of one side's row: the request side
// compares ReqCost, the taxi side TaxiCost.
func before(a, b *Entry, taxiSide bool) bool {
	if taxiSide {
		return Better(a.TaxiCost, a.Partner, b.TaxiCost, b.Partner)
	}
	return Better(a.ReqCost, a.Partner, b.ReqCost, b.Partner)
}

// sortRow sorts one side's row into preference order, Better on (cost,
// partner), with the comparison inline rather than through a closure:
// quicksort on a median-of-three pivot down to insertionCutoff, then
// insertion sort. The order is total on a valid row (no NaN cost, no
// partner twice), so the result equals any other sort's under Better.
// Every scan is bounds-guarded, so an invalid row still sorts without
// fault, in some order Validate then rejects.
func sortRow(row []Entry, taxiSide bool) {
	for len(row) > insertionCutoff {
		n := len(row)
		m := n / 2
		if before(&row[m], &row[0], taxiSide) {
			row[0], row[m] = row[m], row[0]
		}
		if before(&row[n-1], &row[m], taxiSide) {
			row[m], row[n-1] = row[n-1], row[m]
			if before(&row[m], &row[0], taxiSide) {
				row[0], row[m] = row[m], row[0]
			}
		}
		// The median of the three is the pivot; it waits at row[0]
		// while row[1:] is partitioned around it.
		row[0], row[m] = row[m], row[0]
		p := row[0]
		i, j := 1, n-1
		for {
			for i < n && before(&row[i], &p, taxiSide) {
				i++
			}
			for j > 0 && before(&p, &row[j], taxiSide) {
				j--
			}
			if i >= j {
				break
			}
			row[i], row[j] = row[j], row[i]
			i++
			j--
		}
		row[0], row[j] = row[j], row[0]
		// row[:j] precedes the pivot at row[j], which precedes row[j+1:].
		// Recurse on the shorter side and loop on the longer, so the
		// stack stays logarithmic.
		if j < n-1-j {
			sortRow(row[:j], taxiSide)
			row = row[j+1:]
		} else {
			sortRow(row[j+1:], taxiSide)
			row = row[:j]
		}
	}
	for i := 1; i < len(row); i++ {
		e := row[i]
		k := i
		for ; k > 0 && before(&e, &row[k-1], taxiSide); k-- {
			row[k] = row[k-1]
		}
		row[k] = e
	}
}
