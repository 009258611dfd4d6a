// Package storetest is the backend-agnostic conformance suite for
// storage.PageStore implementations. A backend passes by behaving —
// observably — exactly like the paper's simulated disk: same pages
// delivered, same delivered-only read accounting, same refusal of
// dead contexts before any I/O, same composition with the
// fault-injection layer and the buffer manager's retry path, and
// safety under concurrent readers (run the suite with -race).
//
// A backend registers by giving Run a Factory that builds a store
// over reference page payloads; the suite then asserts every clause
// of the storage.PageStore contract against those payloads. RunBench
// is the matching benchmark harness, so `go test -bench` compares the
// logical cost of a simulator read with the physical cost of a real
// file read under one measurement.
package storetest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// Factory builds the store under test over the given reference index
// and page payloads. It may register cleanup with tb.Cleanup (close
// files, remove temp dirs).
type Factory func(tb testing.TB, ix *postings.Index, pages [][]postings.Entry) storage.PageStore

// Sample returns the deterministic reference index the suite reads
// against: a tiny synthetic collection, frequency-sorted and paged by
// postings.Build. It is built once per process and shared by every
// caller, so it is read-only (a test that alters pages builds its own);
// SampleIntact checks that nobody wrote to it.
func Sample(tb testing.TB) (*postings.Index, [][]postings.Entry) {
	tb.Helper()
	sampleOnce.Do(func() { sampleIx, samplePages, sampleErr = buildSample() })
	if sampleErr != nil {
		tb.Fatal(sampleErr)
	}
	return sampleIx, samplePages
}

var (
	sampleOnce  sync.Once
	sampleIx    *postings.Index
	samplePages [][]postings.Entry
	sampleErr   error
)

func buildSample() (*postings.Index, [][]postings.Entry, error) {
	cfg := corpus.TinyConfig(31)
	cfg.NumTopics = 5
	col, err := corpus.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	return postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
}

// SampleIntact fails the test unless the shared Sample still equals a
// fresh build; call it after a suite has run over it.
func SampleIntact(tb testing.TB) {
	ix, pages := Sample(tb)
	if fix, fpages, err := buildSample(); err != nil || !reflect.DeepEqual(ix, fix) || !reflect.DeepEqual(pages, fpages) {
		tb.Errorf("the shared Sample differs from a fresh build (%v): a test wrote to it", err)
	}
}

// read is one counted read under a background context.
func read(st storage.PageStore, id postings.PageID) ([]postings.Entry, error) {
	return st.ReadContext(context.Background(), id)
}

// lruPool builds the serial (one-shard) buffer manager under LRU.
func lruPool(capacity int, store buffer.PageReader, ix *postings.Index) (*buffer.Manager, error) {
	return buffer.NewManager(capacity, 1, store, ix, func(int) buffer.Policy { return buffer.NewLRU() })
}

// Run asserts the storage.PageStore contract against the backend the
// factory builds.
func Run(t *testing.T, newStore Factory) {
	t.Run("ReadEquivalence", func(t *testing.T) { testReadEquivalence(t, newStore) })
	t.Run("ReadAccounting", func(t *testing.T) { testReadAccounting(t, newStore) })
	t.Run("ContextCancellation", func(t *testing.T) { testContextCancellation(t, newStore) })
	t.Run("FaultComposition", func(t *testing.T) { testFaultComposition(t, newStore) })
	t.Run("FaultRetryThroughPool", func(t *testing.T) { testFaultRetryThroughPool(t, newStore) })
	t.Run("ConcurrentReaders", func(t *testing.T) { testConcurrentReaders(t, newStore) })
	t.Run("PoolEquivalence", func(t *testing.T) { testPoolEquivalence(t, newStore) })
}

// testReadEquivalence: every page, through every read path, is
// byte-identical to the reference payload the store was built over.
func testReadEquivalence(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)
	if got := st.NumPages(); got != len(pages) {
		t.Fatalf("NumPages() = %d, want %d", got, len(pages))
	}
	for id := range pages {
		for _, read := range []struct {
			name string
			fn   func(postings.PageID) ([]postings.Entry, error)
		}{
			{"ReadContext", func(id postings.PageID) ([]postings.Entry, error) { return read(st, id) }},
			{"ReadQuiet", st.ReadQuiet},
		} {
			got, err := read.fn(postings.PageID(id))
			if err != nil {
				t.Fatalf("%s(%d): %v", read.name, id, err)
			}
			if !reflect.DeepEqual(got, pages[id]) {
				t.Fatalf("%s(%d) differs from reference payload", read.name, id)
			}
		}
	}
	// The contract keeps a delivered slice valid after later reads.
	first, err := read(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]postings.Entry(nil), first...)
	for id := 1; id < st.NumPages(); id++ {
		if _, err := read(st, postings.PageID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("page 0's slice changed under subsequent reads")
	}
}

// testReadAccounting: Reads() counts pages actually delivered — and
// nothing else. This is the satellite fix's regression test: both
// backends must define the counter identically or cross-backend read
// totals stop being comparable.
func testReadAccounting(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)

	if got := st.Reads(); got != 0 {
		t.Fatalf("fresh store Reads() = %d, want 0", got)
	}
	// Delivered reads count, once each.
	for id := range pages {
		if _, err := read(st, postings.PageID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Reads(); got != int64(len(pages)) {
		t.Fatalf("Reads() = %d after %d delivered reads", got, len(pages))
	}
	// Quiet reads never count.
	if _, err := st.ReadQuiet(0); err != nil {
		t.Fatal(err)
	}
	// Refused reads never count: out of range...
	if _, err := read(st, postings.PageID(len(pages))); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if _, err := read(st, -1); err == nil {
		t.Fatal("negative-page read succeeded")
	}
	// ...or refused by a dead context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.ReadContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context read: err = %v, want context.Canceled", err)
	}
	if got := st.Reads(); got != int64(len(pages)) {
		t.Fatalf("Reads() = %d, want %d: a refused read moved the counter", got, len(pages))
	}
	st.ResetReads()
	if got := st.Reads(); got != 0 {
		t.Fatalf("Reads() = %d after ResetReads", got)
	}
}

// testContextCancellation: an already-dead context fails with its own
// error before any I/O; a context dying mid-read — while a latency
// rule over the backend holds the read — abandons it uncounted.
func testContextCancellation(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.ReadContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := st.ReadContext(dctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	rules, err := storage.ParseFaultSchedule("latency:spike=1h")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := storage.NewFaultStore(st, 1, rules)
	if err != nil {
		t.Fatal(err)
	}
	mctx, mcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer mcancel()
	start := time.Now()
	if _, err := slow.ReadContext(mctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-read cancel: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("mid-read cancel took %v: read was not abandoned", elapsed)
	}

	if got := st.Reads(); got != 0 {
		t.Fatalf("Reads() = %d, want 0: a canceled read was counted", got)
	}
}

// testFaultComposition: the deterministic fault-injection layer
// composes over the backend — faults fire by schedule, faulted reads
// are uncounted, quiet reads bypass injection.
func testFaultComposition(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)

	rules, err := storage.ParseFaultSchedule("permanent:pages=0;transient:pages=1,first=1")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFaultStore(st, 42, rules)
	if err != nil {
		t.Fatal(err)
	}

	// Page 0 is permanently dead through the fault layer...
	for i := 0; i < 2; i++ {
		if _, err := read(fs, 0); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("read %d of dead page: err = %v, want ErrInjectedFault", i, err)
		}
	}
	// ...but quiet reads bypass injection entirely.
	got, err := fs.ReadQuiet(0)
	if err != nil {
		t.Fatalf("ReadQuiet through fault layer: %v", err)
	}
	if !reflect.DeepEqual(got, pages[0]) {
		t.Fatal("ReadQuiet through fault layer differs from reference")
	}
	// Page 1's first read faults transiently, the second succeeds.
	if _, err := read(fs, 1); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("first read of flaky page: err = %v, want ErrInjectedFault", err)
	}
	if _, err := read(fs, 1); err != nil {
		t.Fatalf("second read of flaky page: %v", err)
	}
	// Only the one delivered read moved the counter — injected faults
	// fail before the backend is touched.
	if got := fs.Reads(); got != 1 {
		t.Fatalf("Reads() = %d, want 1 (delivered pages only)", got)
	}
	stats := fs.FaultStats()
	if stats.Permanent != 2 || stats.Transient != 1 {
		t.Fatalf("FaultStats = %+v, want 2 permanent + 1 transient", stats)
	}
}

// testFaultRetryThroughPool: the full stack — buffer manager with a
// retry policy over a fault layer over the backend — rides out a
// transient fault and delivers the page.
func testFaultRetryThroughPool(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)

	rules, err := storage.ParseFaultSchedule("transient:pages=0,first=1")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFaultStore(st, 7, rules)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lruPool(8, fs, ix)
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	mgr.SetRetryPolicy(buffer.RetryPolicy{
		MaxRetries: 3,
		Backoff:    time.Microsecond,
		OnRetry:    func(time.Duration) { retries++ },
	})
	f, _, err := mgr.FetchContext(context.Background(), 0)
	if err != nil {
		t.Fatalf("fetch through retrying pool: %v", err)
	}
	if !reflect.DeepEqual(f.Data(), pages[0]) {
		t.Fatal("retried page differs from reference")
	}
	mgr.Unpin(f)
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
}

// testConcurrentReaders: hammer every read path from many goroutines;
// -race proves the synchronization, the content checks prove reads
// do not tear, and the final counter proves accounting is atomic.
func testConcurrentReaders(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)

	const (
		readers       = 8
		readsPerIdent = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < readsPerIdent; i++ {
				id := postings.PageID(rng.Intn(len(pages)))
				var got []postings.Entry
				var err error
				if i%3 == 2 {
					got, err = st.ReadQuiet(id)
				} else {
					got, err = read(st, id)
				}
				if err != nil {
					errs <- fmt.Errorf("page %d: %w", id, err)
					return
				}
				if !reflect.DeepEqual(got, pages[id]) {
					errs <- fmt.Errorf("page %d: concurrent read differs from reference", id)
					return
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Two of every three reads per goroutine were counted ones.
	want := int64(readers * (readsPerIdent - readsPerIdent/3))
	if got := st.Reads(); got != want {
		t.Fatalf("Reads() = %d, want %d: concurrent accounting lost updates", got, want)
	}
}

// testPoolEquivalence: a buffer pool over the backend produces the
// same pages, hit/miss split, and store-read totals as the same pool
// over the reference simulator — the end-to-end guarantee that lets
// experiments swap backends without moving a single number.
func testPoolEquivalence(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)
	ref := storage.NewStore(pages)

	mgrGot, err := lruPool(8, st, ix)
	if err != nil {
		t.Fatal(err)
	}
	mgrRef, err := lruPool(8, ref, ix)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		id := postings.PageID(rng.Intn(len(pages)))
		fGot, missGot, err := mgrGot.FetchContext(context.Background(), id)
		if err != nil {
			t.Fatalf("fetch %d over backend: %v", id, err)
		}
		fRef, missRef, err := mgrRef.FetchContext(context.Background(), id)
		if err != nil {
			t.Fatalf("fetch %d over simulator: %v", id, err)
		}
		if missGot != missRef {
			t.Fatalf("fetch %d: miss=%v over backend, %v over simulator", id, missGot, missRef)
		}
		if !reflect.DeepEqual(fGot.Data(), fRef.Data()) {
			t.Fatalf("fetch %d: pooled page differs between backends", id)
		}
		mgrGot.Unpin(fGot)
		mgrRef.Unpin(fRef)
	}
	sGot, sRef := mgrGot.Stats(), mgrRef.Stats()
	if sGot.Hits != sRef.Hits || sGot.Misses != sRef.Misses {
		t.Fatalf("pool stats diverge: backend %+v, simulator %+v", sGot, sRef)
	}
	if st.Reads() != ref.Reads() {
		t.Fatalf("store reads diverge: backend %d, simulator %d", st.Reads(), ref.Reads())
	}
}

// RunReadInto asserts storage.IntoReader's contract against a backend
// that decodes its pages (a FileStore, or a FaultStore over one): the
// factory's store must offer ReadInto. For every page and any dst — nil,
// empty, too short, exactly the page's size or larger, each filled with
// junk — ReadInto delivers ReadQuiet's entries, owned, and in dst's own
// array whenever it holds them; it keeps ReadContext's accounting (a
// dead context fails first, only delivered pages count), and a page the
// index cannot hold fails as indexfile.CorruptPageError into a dirty
// dst without moving the counter or spoiling dst for the next read.
func RunReadInto(t *testing.T, newStore Factory) {
	t.Run("Entries", func(t *testing.T) { testReadIntoEntries(t, newStore) })
	t.Run("Accounting", func(t *testing.T) { testReadIntoAccounting(t, newStore) })
	t.Run("Corrupt", func(t *testing.T) { testReadIntoCorrupt(t, newStore) })
}

// intoReader is the store under test as a storage.IntoReader.
func intoReader(t *testing.T, st storage.PageStore) storage.IntoReader {
	t.Helper()
	ir, ok := st.(storage.IntoReader)
	if !ok {
		t.Fatalf("%T does not offer ReadInto", st)
	}
	return ir
}

// dirty returns a slice of length and capacity n full of junk entries.
func dirty(n int) []postings.Entry {
	dst := make([]postings.Entry, n)
	for i := range dst {
		dst[i] = postings.Entry{Doc: -1 - postings.DocID(i), Freq: -7}
	}
	return dst
}

func testReadIntoEntries(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)
	ir := intoReader(t, st)
	ctx := context.Background()
	for id := range pages {
		want, err := st.ReadQuiet(postings.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		n := len(want)
		for _, dst := range []struct {
			name string
			dst  []postings.Entry
		}{
			{"nil", nil},
			{"cap 0", dirty(0)},
			{"too short", dirty(n - 1)},
			{"exact", dirty(n)},
			{"larger", dirty(n + 17)},
		} {
			got, owned, err := ir.ReadInto(ctx, postings.PageID(id), dst.dst)
			if err != nil {
				t.Fatalf("page %d into %s dst: %v", id, dst.name, err)
			}
			if !owned {
				t.Fatalf("page %d into %s dst: a decoding store returned entries it does not hand over", id, dst.name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("page %d into %s dst: entries differ from ReadQuiet's", id, dst.name)
			}
			if cap(dst.dst) >= n && n > 0 && &got[0] != &dst.dst[:1][0] {
				t.Fatalf("page %d into %s dst: a dst that holds the page was not reused", id, dst.name)
			}
		}
	}
	if got := st.Reads(); got != int64(5*len(pages)) {
		t.Fatalf("Reads() = %d after %d delivered reads", got, 5*len(pages))
	}
}

func testReadIntoAccounting(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	st := newStore(t, ix, pages)
	ir := intoReader(t, st)
	dst := dirty(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ir.ReadInto(ctx, 0, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context ReadInto: err = %v, want context.Canceled", err)
	}
	if _, _, err := ir.ReadInto(context.Background(), postings.PageID(len(pages)), dst); err == nil {
		t.Fatal("out-of-range ReadInto succeeded")
	}
	if got := st.Reads(); got != 0 {
		t.Fatalf("Reads() = %d after refused reads, want 0", got)
	}
	for id := range pages {
		got, _, err := ir.ReadInto(context.Background(), postings.PageID(id), dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = got
	}
	if got := st.Reads(); got != int64(len(pages)) {
		t.Fatalf("Reads() = %d after %d delivered reads", got, len(pages))
	}
}

func testReadIntoCorrupt(t *testing.T, newStore Factory) {
	ix, pages := Sample(t)
	// The first full page whose list goes on: its last document moves
	// past NumDocs, a blob that checksums and decodes but that the
	// index cannot hold.
	bad := -1
	for id := range pages {
		tm := &ix.Terms[ix.TermOfPage(postings.PageID(id))]
		if len(pages[id]) == ix.PageSize && int(ix.PageOffset(postings.PageID(id))) < tm.NumPages-1 {
			bad = id
			break
		}
	}
	if bad < 0 {
		t.Fatal("the sample has no full page that is not its list's last")
	}
	mutated := append([][]postings.Entry(nil), pages...)
	mutated[bad] = append([]postings.Entry(nil), pages[bad]...)
	mutated[bad][len(pages[bad])-1].Doc = postings.DocID(ix.NumDocs + 5)
	st := newStore(t, ix, mutated)
	ir := intoReader(t, st)
	dst := dirty(len(pages[bad]) + 3)
	var corrupt *indexfile.CorruptPageError
	if _, _, err := ir.ReadInto(context.Background(), postings.PageID(bad), dst); !errors.As(err, &corrupt) || corrupt.Page != bad {
		t.Fatalf("ReadInto of a page the index cannot hold: err = %v, want its CorruptPageError", err)
	}
	if got := st.Reads(); got != 0 {
		t.Fatalf("Reads() = %d after a rejected read, want 0", got)
	}
	// dst, scribbled by the rejected decode, serves the next read.
	next := (bad + 1) % len(pages)
	got, _, err := ir.ReadInto(context.Background(), postings.PageID(next), dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pages[next]) {
		t.Fatalf("page %d into the dst a rejected read used: entries differ", next)
	}
	if got := st.Reads(); got != 1 {
		t.Fatalf("Reads() = %d, want 1", got)
	}
}

// RunBench measures the backend's per-page read cost — what the
// simulator charges as one logical read — over the reference sample:
// a sequential sweep (every page once per sweep) and a Zipf-less
// uniform random probe. Paired across backends it puts a wall-clock
// price on the paper's "one page read" unit.
func RunBench(b *testing.B, newStore Factory) {
	ix, pages := Sample(b)
	st := newStore(b, ix, pages)
	entries := 0
	for _, p := range pages {
		entries += len(p)
	}

	b.Run("SequentialRead", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := read(st, postings.PageID(i%len(pages))); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(entries)/float64(len(pages)), "entries/page")
	})
	b.Run("RandomRead", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1998))
		ids := make([]postings.PageID, 1024)
		for i := range ids {
			ids[i] = postings.PageID(rng.Intn(len(pages)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := read(st, ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
