package storage_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/codec"
	"bufir/internal/corpus"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/storage"
	"bufir/internal/storage/storetest"
)

// writeSampleFile persists the conformance sample as a paged index
// file and returns its path plus the reference payloads.
func writeSampleFile(t *testing.T) (string, *postings.Index, [][]postings.Entry) {
	t.Helper()
	ix, pages := storetest.Sample(t)
	path := filepath.Join(t.TempDir(), "pages.bufir")
	if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	return path, ix, pages
}

// TestFileStoreCorruptPage flips the last byte of the file — inside
// the final page's blob — and checks the full failure contract on
// both access paths: the checksum catches it, the error is classified
// permanent (so the pool's retry budget is not burned rereading bytes
// that cannot heal), the failed read is uncounted, and healthy pages
// keep working.
func TestFileStoreCorruptPage(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts indexfile.PageFileOptions
	}{
		{"mmap", indexfile.PageFileOptions{}},
		{"readat", indexfile.PageFileOptions{DisableMmap: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, ix, pages := writeSampleFile(t)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			fs, err := storage.OpenFileStore(path, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()

			last := postings.PageID(len(pages) - 1)
			_, err = fs.ReadContext(context.Background(), last)
			var corrupt *indexfile.CorruptPageError
			if !errors.As(err, &corrupt) {
				t.Fatalf("read of corrupted page: err = %v, want CorruptPageError", err)
			}
			if corrupt.Page != int(last) {
				t.Fatalf("CorruptPageError.Page = %d, want %d", corrupt.Page, last)
			}
			if !corrupt.PermanentFault() {
				t.Fatal("corruption must classify as a permanent fault")
			}
			if got := fs.Reads(); got != 0 {
				t.Fatalf("Reads() = %d after a failed read, want 0", got)
			}
			// Healthy pages are unaffected.
			if _, err := fs.ReadContext(context.Background(), 0); err != nil {
				t.Fatalf("read of healthy page: %v", err)
			}

			// Through a retrying pool the error surfaces immediately:
			// permanent faults never consume retries.
			mgr, err := buffer.NewManager(8, 1, fs, ix, func(int) buffer.Policy { return buffer.NewLRU() })
			if err != nil {
				t.Fatal(err)
			}
			var retries int
			mgr.SetRetryPolicy(buffer.RetryPolicy{
				MaxRetries: 3,
				Backoff:    time.Microsecond,
				OnRetry:    func(time.Duration) { retries++ },
			})
			if _, _, err := mgr.FetchContext(context.Background(), last); !errors.As(err, &corrupt) {
				t.Fatalf("pooled read of corrupted page: err = %v, want CorruptPageError", err)
			}
			if retries != 0 {
				t.Fatalf("retries = %d rereading a permanently corrupt page, want 0", retries)
			}
		})
	}
}

// TestFileStoreRejectsPagesTheIndexCannotHold: a page whose checksum
// matches but whose content the index cannot hold — a document id past
// NumDocs, or fewer entries than the term metadata promises on a page
// that is not the list's last — fails the read as a permanent
// CorruptPageError. Through the buffer manager the query then fails
// with that error, or completes degraded within a fault budget,
// instead of the evaluator indexing past its per-document arrays.
func TestFileStoreRejectsPagesTheIndexCannotHold(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(page []postings.Entry, numDocs int) []postings.Entry
	}{
		{"doc past NumDocs", func(page []postings.Entry, numDocs int) []postings.Entry {
			page[len(page)-1].Doc = postings.DocID(numDocs + 5)
			return page
		}},
		{"short page", func(page []postings.Entry, _ int) []postings.Entry {
			return page[:len(page)-1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coll, err := corpus.Generate(corpus.TinyConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			ix, pages, err := postings.Build(coll.Lists, coll.NumDocs, coll.Cfg.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			// The longest list's first page: full, and not its last.
			term := postings.TermID(0)
			for tm := range ix.Terms {
				if ix.Terms[tm].NumPages > ix.Terms[term].NumPages {
					term = postings.TermID(tm)
				}
			}
			bad := ix.PageOf(term, 0)
			pages[bad] = tc.mutate(pages[bad], ix.NumDocs)
			path := filepath.Join(t.TempDir(), "pages.bufir")
			if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
				t.Fatal(err)
			}
			fs, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()

			var corrupt *indexfile.CorruptPageError
			got, err := fs.ReadContext(context.Background(), bad)
			if !errors.As(err, &corrupt) || corrupt.Page != int(bad) || !corrupt.PermanentFault() {
				t.Fatalf("read = %d entries, err %v; want a permanent CorruptPageError for page %d", len(got), err, bad)
			}
			if fs.Reads() != 0 {
				t.Fatalf("Reads() = %d after a rejected read, want 0", fs.Reads())
			}

			fix := fs.File().Index
			conv := postings.NewConversionTable(fix, postings.DefaultMaxKey)
			q := eval.Query{{Term: term, Fqt: 1}}
			for _, budget := range []int{0, 1} {
				mgr, err := buffer.NewManager(8, 1, fs, fix, func(int) buffer.Policy { return buffer.NewLRU() })
				if err != nil {
					t.Fatal(err)
				}
				ev, err := eval.NewEvaluator(fix, mgr, conv, eval.Params{TopN: 10, FaultBudget: budget})
				if err != nil {
					t.Fatal(err)
				}
				res, err := ev.Evaluate(eval.DF, q)
				if budget == 0 && !errors.As(err, &corrupt) {
					t.Fatalf("Evaluate: err = %v, want CorruptPageError", err)
				}
				if budget == 1 && (err != nil || !res.Degraded) {
					t.Fatalf("Evaluate with a fault budget: err = %v, want a degraded result", err)
				}
			}
		})
	}
}

// TestFileStoreAccessPaths checks the runtime mmap switch: the
// default open maps the file where the platform supports it, and
// DisableMmap forces pread on the same file.
func TestFileStoreAccessPaths(t *testing.T) {
	path, _, _ := writeSampleFile(t)

	pread, err := storage.OpenFileStore(path, indexfile.PageFileOptions{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pread.Close()
	if pread.Mapped() {
		t.Fatal("DisableMmap store reports Mapped() = true")
	}

	def, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	t.Logf("default open: Mapped() = %v", def.Mapped())
}

// TestFileStoreStats checks the observability counters against the
// codec itself: the file holds exactly codec.EncodePage's encodings,
// so its compression statistics must agree with them to the byte, and
// DecodedEntries must account every entry a counted read decompressed.
func TestFileStoreStats(t *testing.T) {
	path, _, pages := writeSampleFile(t)
	fs, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	var want codec.Stats
	for _, p := range pages {
		enc, err := codec.EncodePage(p)
		if err != nil {
			t.Fatal(err)
		}
		want.Entries += len(p)
		want.EncodedBytes += len(enc)
		want.RawBytes += 6 * len(p)
	}
	if got := fs.CompressionStats(); got != want {
		t.Fatalf("CompressionStats: file %+v, codec %+v", got, want)
	}

	entries := 0
	for id := range pages {
		if _, err := fs.ReadContext(context.Background(), postings.PageID(id)); err != nil {
			t.Fatal(err)
		}
		entries += len(pages[id])
	}
	if got := fs.DecodedEntries(); got != int64(entries) {
		t.Fatalf("DecodedEntries() = %d, want %d", got, entries)
	}
	fs.ResetReads()
	if fs.DecodedEntries() != 0 || fs.Reads() != 0 {
		t.Fatal("ResetReads left a counter standing")
	}

	if fs.File() == nil || fs.File().Index == nil {
		t.Fatal("File() must expose the open page file")
	}
}

// TestOpenFileStoreErrors: opening garbage fails cleanly.
func TestOpenFileStoreErrors(t *testing.T) {
	if _, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "missing"), indexfile.PageFileOptions{}); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("not an index file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenFileStore(bad, indexfile.PageFileOptions{}); err == nil {
		t.Fatal("opening a non-index file succeeded")
	}
}

// TestDecodingReadAllocatesOnce: the file store knows from its
// metadata how many entries a page holds, so a read costs exactly one
// allocation — the entries slice the buffer frame keeps — on both
// access paths. (Growing the slice from nil cost eight for a
// 100-entry page.)
func TestDecodingReadAllocatesOnce(t *testing.T) {
	path, _, pages := writeSampleFile(t)
	mapped, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	pread, err := storage.OpenFileStore(path, indexfile.PageFileOptions{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pread.Close()
	// The longest page: the one growth would hurt most.
	longest := 0
	for i, p := range pages {
		if len(p) > len(pages[longest]) {
			longest = i
		}
	}
	ctx := context.Background()
	for _, st := range []struct {
		name  string
		store storage.PageStore
	}{{"file/default", mapped}, {"file/pread", pread}} {
		var got []postings.Entry
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if got, err = st.store.ReadContext(ctx, postings.PageID(longest)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocations per read of a %d-entry page, want 1", st.name, allocs, len(pages[longest]))
		}
		if len(got) != len(pages[longest]) || cap(got) != len(got) {
			t.Errorf("%s: read %d entries into capacity %d, page holds %d", st.name, len(got), cap(got), len(pages[longest]))
		}
	}
}
