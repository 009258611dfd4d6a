package bufir

// End-to-end coverage of the file-backed storage path through the
// public API: WriteFile → OpenIndexFile must answer queries — and
// charge page reads — exactly like the in-memory simulator, alone and
// under an Engine with fault injection layered over the real file.

import (
	"context"
	"path/filepath"
	"testing"

	"bufir/internal/storage"
)

// openFileBacked round-trips the index through the paged format and
// opens it file-backed.
func openFileBacked(t *testing.T, ix *Index) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.bufir2")
	if err := ix.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fb.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return fb
}

// TestFileBackedSearchEquivalence: same query, same session config —
// identical ranking, scores, and read charges whether the pages live
// in memory or on disk.
func TestFileBackedSearchEquivalence(t *testing.T) {
	col, ix := testIndex(t)
	fb := openFileBacked(t, ix)

	if fb.NumDocs() != ix.NumDocs() || fb.NumTerms() != ix.NumTerms() ||
		fb.NumPages() != ix.NumPages() || fb.PageSize() != ix.PageSize() {
		t.Fatal("file-backed index shape differs")
	}
	if _, ok := fb.view().base.(*storage.FileStore); !ok {
		t.Fatal("file-backed index has no file store")
	}

	for _, algo := range []Algorithm{DF, BAF} {
		for _, topic := range col.Topics[:3] {
			q, err := ix.TopicQuery(topic)
			if err != nil {
				t.Fatal(err)
			}
			run := func(i *Index) *Result {
				s, err := i.NewSession(SessionConfig{
					EvalOptions: EvalOptions{Algorithm: algo},
					Policy:      RAP,
					BufferPages: 64,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(ix), run(fb)
			if a.PagesRead != b.PagesRead {
				t.Errorf("topic %d/%v: reads %d in memory, %d file-backed", topic.ID, algo, a.PagesRead, b.PagesRead)
			}
			if len(a.Top) != len(b.Top) {
				t.Fatalf("topic %d/%v: answer sizes differ", topic.ID, algo)
			}
			for i := range a.Top {
				if a.Top[i] != b.Top[i] {
					t.Fatalf("topic %d/%v: ranking differs at %d: %+v vs %+v", topic.ID, algo, i, a.Top[i], b.Top[i])
				}
			}
		}
	}
}

// TestFileBackedDiskReadAccounting: the public read counter moves
// identically over the real file.
func TestFileBackedDiskReadAccounting(t *testing.T) {
	col, ix := testIndex(t)
	fb := openFileBacked(t, ix)
	q, err := fb.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err := fb.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fb.ResetDiskReads()
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if fb.DiskReads() != int64(res.PagesRead) {
		t.Fatalf("DiskReads = %d, result charged %d", fb.DiskReads(), res.PagesRead)
	}
}

// TestFileBackedEngineWithFaults: the full serving stack over the
// real file — engine, shared pool, retry policy — rides out injected
// transient faults and still answers exactly like the clean in-memory
// run.
func TestFileBackedEngineWithFaults(t *testing.T) {
	col, ix := testIndex(t)
	fb := openFileBacked(t, ix)
	if err := fb.InjectFaults("transient:prob=0.2", 1998); err != nil {
		t.Fatal(err)
	}

	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: the same engine config over the clean in-memory store
	// (engines default to collection-tuned filtering constants, so a
	// plain Session would not be comparable).
	want := func() *Result {
		ref, err := ix.NewEngine(EngineConfig{Workers: 2, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		res, err := ref.SearchContext(context.Background(), 0, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	eng, err := fb.NewEngine(EngineConfig{
		Workers:     2,
		BufferPages: 64,
		Fault:       FaultToleranceOptions{Retries: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.SearchContext(context.Background(), 0, q)
	if err != nil {
		t.Fatalf("search over faulty file-backed store: %v", err)
	}
	if len(res.Top) != len(want.Top) {
		t.Fatalf("answer sizes differ: %d vs %d", len(res.Top), len(want.Top))
	}
	for i := range want.Top {
		if res.Top[i].Doc != want.Top[i].Doc {
			t.Fatalf("ranking differs at %d under faults", i)
		}
	}
	if fb.FaultStats().Transient == 0 {
		t.Fatal("fault schedule injected nothing — the test exercised no recovery")
	}
}

// TestFileBackedRePersist: a file-backed index can be persisted again
// — pagePayloads materializes pages off the file — and the copy
// answers identically.
func TestFileBackedRePersist(t *testing.T) {
	col, ix := testIndex(t)
	fb := openFileBacked(t, ix)
	fb2 := openFileBacked(t, fb)

	q, err := ix.TopicQuery(col.Topics[1])
	if err != nil {
		t.Fatal(err)
	}
	run := func(i *Index) *Result {
		s, err := i.NewSession(SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(fb), run(fb2)
	for i := range a.Top {
		if a.Top[i] != b.Top[i] {
			t.Fatalf("re-persisted copies diverge at %d", i)
		}
	}
}
