package postings

// ConversionTable is the memory-resident f_add -> p_t table of §3.2.2:
// for each term it answers "how many pages of this term's inverted
// list will a scan with addition threshold f_add process?".
//
// As in the paper, the table is kept small: single-page terms always
// answer 1, and for multi-page terms only thresholds up to MaxKey are
// tabulated (the paper observes f_add was rarely higher than 10 and
// that entries with f_dt > 10 are very rarely found outside the first
// page). Thresholds beyond the tabulated range fall back to the exact
// computation from the per-page minimum frequencies, which are also
// memory resident. The table is immutable once built, so every
// concurrent session shares one.
type ConversionTable struct {
	ix *Index
	// rows[t] is nil for single-page terms; otherwise rows[t][k] is
	// the page count for integer threshold k (0 <= k <= MaxKey).
	rows [][]int16
	// MaxKey is the largest tabulated integer threshold.
	MaxKey int
}

// DefaultMaxKey tabulates thresholds 0..10, the useful range the paper
// reports for the WSJ collection (footnote 6).
const DefaultMaxKey = 10

// NewConversionTable builds the table for ix with thresholds
// 0..maxKey. Entries are int16 page counts: the longest paper-scale
// list is 115 pages, far below the int16 limit; counts are clamped
// defensively if a list were ever longer.
func NewConversionTable(ix *Index, maxKey int) *ConversionTable {
	if maxKey < 0 {
		maxKey = 0
	}
	ct := &ConversionTable{
		ix:     ix,
		rows:   make([][]int16, len(ix.Terms)),
		MaxKey: maxKey,
	}
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		if tm.NumPages <= 1 {
			continue // single-page terms always process exactly 1 page
		}
		row := make([]int16, maxKey+1)
		for k := 0; k <= maxKey; k++ {
			p := ix.PagesToProcessExact(TermID(t), float64(k))
			if p > 32767 {
				p = 32767
			}
			row[k] = int16(p)
		}
		ct.rows[t] = row
	}
	return ct
}

// Pages returns p_t for term t and addition threshold fadd. Because
// document frequencies are integers, an entry passes the threshold iff
// f_dt > fadd iff f_dt >= floor(fadd)+1, so the table is keyed by
// floor(fadd).
func (ct *ConversionTable) Pages(t TermID, fadd float64) int {
	row := ct.rows[t]
	if row == nil {
		return 1 // single-page list
	}
	if fadd < 0 {
		fadd = 0
	}
	k := int(fadd)
	if k > ct.MaxKey {
		// Rare in practice: fall back to the exact computation from
		// memory-resident page minima.
		return ct.ix.PagesToProcessExact(t, fadd)
	}
	return int(row[k])
}

// SizeBytes reports the memory footprint of the tabulated rows in
// bytes (2 bytes per cell), the quantity the paper sizes at ~121 KB
// for the WSJ collection (6,060 multi-page terms x 10 thresholds x 2
// bytes).
func (ct *ConversionTable) SizeBytes() int {
	total := 0
	for _, row := range ct.rows {
		total += 2 * len(row)
	}
	return total
}
