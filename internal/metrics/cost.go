package metrics

// CostModel converts the simulator's counters into modeled response
// time, addressing §2.4's framing: Turtle & Flood report that for
// natural-language systems "it is unclear whether disk or CPU cost is
// more important", but most CPU cost is decompression and partial-
// score arithmetic, "directly proportional to the number of disk
// reads". The model therefore charges a fixed cost per page read and
// a per-entry CPU cost; with both in play, anything that reduces page
// reads reduces both components together — the paper's justification
// for treating disk reads as the primary metric.
type CostModel struct {
	// PageReadMicros is the charged time per disk page read (seek +
	// transfer amortized; late-1990s disks served ~100 random 4 KB
	// reads per second, so the default is 10,000 µs per full page and
	// proportionally less for the paper's 1/10-page unit).
	PageReadMicros float64
	// EntryCPUMicros is the charged time per (d, f_dt) entry processed
	// (decompression plus accumulation).
	EntryCPUMicros float64
}

// DefaultCostModel reflects the paper's era: 1 ms per (tenth-)page
// read and 1 µs of CPU per entry processed.
func DefaultCostModel() CostModel {
	return CostModel{PageReadMicros: 1000, EntryCPUMicros: 1}
}

// ResponseMicros returns the modeled response time for an execution
// that read the given pages and processed the given entries.
func (m CostModel) ResponseMicros(pagesRead, entriesProcessed int) float64 {
	return m.PageReadMicros*float64(pagesRead) + m.EntryCPUMicros*float64(entriesProcessed)
}
