package bufir_test

// The Index port's conformance run: every backend the package can
// materialize — the in-memory simulator, the paged file store in both
// access modes, and the live delta-overlay in memory-resident and
// file-generation flavors — goes through internal/indextest's shared
// property suite. `make indextest` runs exactly this test.

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

// liveBackend builds the index over the full corpus and enables live
// updates: the delta starts empty, so read equivalence exercises the
// passthrough overlay, and the live properties exercise ingestion.
func liveBackend() indextest.Backend {
	return indextest.Backend{
		Name: "live-memory",
		Live: true,
		Open: func(t *testing.T, docs []bufir.Document) *bufir.Index {
			ix, err := bufir.IndexDocuments(docs, buildOpts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.EnableLiveUpdates(bufir.LiveOptions{}); err != nil {
				t.Fatal(err)
			}
			return ix
		},
	}
}

// overlayBackend builds only a prefix of the corpus statically and
// ingests the rest through the live path, so read equivalence runs
// against a populated delta: merged postings, recomputed global
// statistics, overlay-synthesized pages.
func overlayBackend(name string, merge bool, dir func(t *testing.T) string) indextest.Backend {
	return indextest.Backend{
		Name: name,
		Live: true,
		Open: func(t *testing.T, docs []bufir.Document) *bufir.Index {
			split := len(docs) * 2 / 3
			ix, err := bufir.IndexDocuments(docs[:split], buildOpts)
			if err != nil {
				t.Fatal(err)
			}
			opts := bufir.LiveOptions{}
			if dir != nil {
				opts.Dir = dir(t)
			}
			if err := ix.EnableLiveUpdates(opts); err != nil {
				t.Fatal(err)
			}
			for _, d := range docs[split:] {
				if _, err := ix.Add(d.Name, d.Text); err != nil {
					t.Fatal(err)
				}
			}
			if merge {
				if err := ix.Merge(); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(func() { ix.Close() })
			return ix
		},
	}
}

func conformanceBackends() []indextest.Backend {
	return []indextest.Backend{
		memBackend(), // reference
		fileBackend("file-mmap", bufir.OpenIndexFile),
		fileBackend("file-readat", bufir.OpenIndexFileReadAt),
		liveBackend(),
		overlayBackend("delta-overlay", false, nil),
		overlayBackend("generational-file", true, func(t *testing.T) string { return t.TempDir() }),
	}
}

func TestIndexConformance(t *testing.T) {
	indextest.Run(t, conformanceBackends())
}
