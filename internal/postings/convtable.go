package postings

import "math"

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
//
// The rows are laid out flat, as the paper sizes them: one []int16
// holds every tabulated row back to back, and each term costs one
// int32 row offset, whatever its length. A list longer than an int16
// can count (32 767 pages) is left untabulated and always takes the
// exact fallback, so a count is never clamped.
type ConversionTable struct {
	ix *Index
	// cells holds the tabulated rows back to back, MaxKey+1 cells
	// each: cells[row[t]+k] is term t's page count for integer
	// threshold k (0 <= k <= MaxKey).
	cells []int16
	// row[t] is the offset of term t's row in cells, or rowSingle for
	// a term of at most one page, or rowExact for a list too long to
	// tabulate.
	row []int32
	// MaxKey is the largest tabulated integer threshold.
	MaxKey int
}

// Row offsets of the terms the table holds no row for.
const (
	rowSingle = -1 // p_t is 1 at every threshold
	rowExact  = -2 // p_t is computed from the page minima
)

// DefaultMaxKey tabulates thresholds 0..10, the useful range the paper
// reports for the WSJ collection (footnote 6).
const DefaultMaxKey = 10

// NewConversionTable builds the table for ix with thresholds
// 0..maxKey. Entries are int16 page counts: the longest paper-scale
// list is 115 pages, far below the int16 limit; a list longer than
// math.MaxInt16 pages gets no row and is answered exactly.
func NewConversionTable(ix *Index, maxKey int) *ConversionTable {
	if maxKey < 0 {
		maxKey = 0
	}
	ct := &ConversionTable{
		ix:     ix,
		row:    make([]int32, len(ix.Terms)),
		MaxKey: maxKey,
	}
	rows := 0
	for t := range ix.Terms {
		if n := ix.Terms[t].NumPages; n > 1 && n <= math.MaxInt16 {
			rows++
		}
	}
	ct.cells = make([]int16, 0, rows*(maxKey+1))
	for t := range ix.Terms {
		switch n := ix.Terms[t].NumPages; {
		case n <= 1:
			ct.row[t] = rowSingle // always exactly 1 page
		case n > math.MaxInt16:
			ct.row[t] = rowExact
		default:
			ct.row[t] = int32(len(ct.cells))
			for k := 0; k <= maxKey; k++ {
				ct.cells = append(ct.cells, int16(ix.PagesToProcessExact(TermID(t), float64(k))))
			}
		}
	}
	return ct
}

// Pages returns p_t for term t and addition threshold fadd. Because
// document frequencies are integers, an entry passes the threshold iff
// f_dt > fadd iff f_dt >= floor(fadd)+1, so the table is keyed by
// floor(fadd).
func (ct *ConversionTable) Pages(t TermID, fadd float64) int {
	row := ct.row[t]
	if row == rowSingle {
		return 1 // single-page list
	}
	if fadd < 0 {
		fadd = 0
	}
	k := int(fadd)
	if k > ct.MaxKey || row == rowExact {
		// Rare in practice: fall back to the exact computation from
		// memory-resident page minima.
		return ct.ix.PagesToProcessExact(t, fadd)
	}
	return int(ct.cells[int(row)+k])
}

// SizeBytes reports the memory footprint of the tabulated rows in
// bytes (2 bytes per cell), the quantity the paper sizes at ~121 KB
// for the WSJ collection (6,060 multi-page terms x 10 thresholds x 2
// bytes). The row offsets, 4 bytes per term, are not counted.
func (ct *ConversionTable) SizeBytes() int { return 2 * len(ct.cells) }
