package bufir_test

// The Index port's conformance run: every backend the package can
// materialize — the in-memory simulator, the paged file store in both
// access modes, a live index whose delta was merged into a new
// generation and a live index serving a commit over a populated delta
// — goes through internal/indextest's shared property suite.
// `make indextest` runs exactly this test.

import (
	"path/filepath"
	"testing"

	"bufir"
	"bufir/internal/indextest"
)

// buildOpts disables stop-word removal: the conformance corpus has a
// 120-word vocabulary, and the default (the paper's 100 most frequent
// raw terms) would swallow most of it.
var buildOpts = bufir.IndexOptions{NumStopWords: -1}

func memBackend() indextest.Backend {
	return indextest.Backend{
		Name: "simulator",
		Open: func(t *testing.T, docs []bufir.Document) *bufir.Index {
			ix, err := bufir.IndexDocuments(docs, buildOpts)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
	}
}

func fileBackend(name string, open func(path string) (*bufir.Index, error)) indextest.Backend {
	return indextest.Backend{
		Name: name,
		Open: func(t *testing.T, docs []bufir.Document) *bufir.Index {
			built, err := bufir.IndexDocuments(docs, buildOpts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "conformance.bufir")
			if err := built.WriteFile(path, 0); err != nil {
				t.Fatal(err)
			}
			ix, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ix.Close() })
			return ix
		},
	}
}

// liveIngested builds only a prefix of the corpus statically and
// ingests the rest through the live path, each document a commit:
// merged postings, recomputed global statistics, re-paged lists.
func liveIngested(t *testing.T, docs []bufir.Document) *bufir.Index {
	t.Helper()
	split := len(docs) * 2 / 3
	ix, err := bufir.IndexDocuments(docs[:split], buildOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableLiveUpdates(bufir.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[split:] {
		if _, err := ix.Add(d.Name, d.Text); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// mergedBackend ingests a third of the corpus live and merges it, so
// read equivalence runs over a merged generation: the metadata a merge
// publishes, and the live properties go on ingesting over it.
func mergedBackend() indextest.Backend {
	return indextest.Backend{
		Name: "live-merged",
		Live: true,
		Open: func(t *testing.T, docs []bufir.Document) *bufir.Index {
			ix := liveIngested(t, docs)
			if err := ix.Merge(); err != nil {
				t.Fatal(err)
			}
			if n := ix.DeltaDocs(); n != 0 {
				t.Fatalf("%d documents left in the delta after Merge", n)
			}
			return ix
		},
	}
}

// overlayBackend serves the last commit over a populated delta, so
// read equivalence runs against a commit's metadata and store.
func overlayBackend() indextest.Backend {
	return indextest.Backend{
		Name: "delta-overlay",
		Live: true,
		Open: liveIngested,
	}
}

func conformanceBackends() []indextest.Backend {
	return []indextest.Backend{
		memBackend(), // reference
		fileBackend("file-mmap", bufir.OpenIndexFile),
		fileBackend("file-readat", bufir.OpenIndexFileReadAt),
		mergedBackend(),
		overlayBackend(),
	}
}

func TestIndexConformance(t *testing.T) {
	indextest.Run(t, conformanceBackends())
}
