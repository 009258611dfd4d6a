package bufir

import (
	"fmt"
	"path/filepath"

	"bufir/internal/indexfile"
	"bufir/internal/livedex"
	"bufir/internal/postings"
	"bufir/internal/storage"
	"bufir/internal/text"
)

// LiveOptions configures live index updates (EnableLiveUpdates).
type LiveOptions struct {
	// Dir, when non-empty, makes merges durable: each compacted
	// generation is written as a packed BUFIR3 page file
	// gen-<epoch>.bufir under Dir and served from disk.
	// Empty keeps generations in memory (the simulator default).
	Dir string
	// AutoMergeDocs, when positive, starts a background merge whenever
	// a commit leaves at least this many documents in the delta. Zero
	// means merges happen only when Merge is called.
	AutoMergeDocs int
}

// LiveStats is a point-in-time snapshot of a live index's ingestion
// state.
type LiveStats struct {
	// Epoch is the current generation number.
	Epoch uint64
	// NumDocs is the live collection size N (main + delta).
	NumDocs int
	// DeltaDocs and DeltaEntries size the pending delta.
	DeltaDocs    int
	DeltaEntries int
	// Merges counts completed generational merges.
	Merges int
	// Merging reports whether a background merge is in flight.
	Merging bool
}

// EnableLiveUpdates turns the index mutable: Add and AddTerms append
// documents to an in-memory frequency-ordered delta, every commit
// publishes a combined (main + delta) view whose answers are
// bit-identical to a from-scratch rebuild of the merged corpus, and
// Merge (or the AutoMergeDocs trigger) compacts the delta into a new
// frequency-sorted generation with an atomic swap. Each publication
// bumps Epoch; sessions and engines rebind at their next query.
//
// Positional indexes are refused (positional data has no delta path).
// Call once; a second call is an error.
func (ix *Index) EnableLiveUpdates(opts LiveOptions) error {
	ix.liveMu.Lock()
	defer ix.liveMu.Unlock()
	if ix.live != nil {
		return fmt.Errorf("bufir: live updates already enabled")
	}
	if ix.positional != nil {
		return fmt.Errorf("bufir: live updates do not support positional indexes")
	}
	v := ix.view()
	pages, err := ix.pagePayloads()
	if err != nil {
		return err
	}
	// The live State reads main pages beneath any fault-injection
	// layer: faults model the serving path, and for live views that
	// path is the published overlay, which gets its own layer.
	st, err := livedex.NewState(v.ix, v.base, pages)
	if err != nil {
		return err
	}
	// Materialize the main generation's document names so delta names
	// can append to them positionally.
	names := v.docNames
	if names == nil && v.ix.NumDocs > 0 {
		names = make([]string, v.ix.NumDocs)
		for d := range names {
			names[d] = fmt.Sprintf("doc%d", d)
		}
	}
	ix.live = st
	ix.liveOpts = opts
	ix.liveBase = names
	ix.livePipe = ix.pipe
	if ix.livePipe == nil {
		// An index without a lexical pipeline (synthetic collections,
		// loaded shard files) keys its vocabulary by raw tokens, and
		// LookupTerm matches them verbatim. Ingest with stemming off so
		// a token added here is findable under the same spelling.
		ix.livePipe = text.NewPipeline(nil)
		ix.livePipe.DisableStemming()
	}
	return nil
}

// Add tokenizes text through the index's lexical pipeline (the one
// its documents were built with, or the default pipeline for
// generated collections) and appends it as a new document, assigning
// the next DocID and publishing a new epoch. An empty name gets a
// synthetic "doc<N>" name.
func (ix *Index) Add(name, text string) (DocID, error) {
	ix.liveMu.Lock()
	defer ix.liveMu.Unlock()
	if ix.live == nil {
		return 0, errNotLive()
	}
	return ix.addLocked(name, ix.livePipe.CountTerms(text))
}

// AddTerms appends a document given directly as (term, frequency)
// pairs, bypassing the lexical pipeline — the paths that already hold
// processed terms (generated collections, replication) and the
// ingestion-exactness harness use this.
func (ix *Index) AddTerms(name string, counts map[string]int) (DocID, error) {
	ix.liveMu.Lock()
	defer ix.liveMu.Unlock()
	if ix.live == nil {
		return 0, errNotLive()
	}
	return ix.addLocked(name, counts)
}

func errNotLive() error {
	return fmt.Errorf("bufir: index is read-only; call EnableLiveUpdates first")
}

// addLocked appends one document, substituting a synthetic name for
// an empty one, and commits (called with liveMu held).
func (ix *Index) addLocked(name string, counts map[string]int) (DocID, error) {
	if name == "" {
		name = fmt.Sprintf("doc%d", ix.live.NumDocs())
	}
	id, err := ix.live.AddDoc(name, counts)
	if err != nil {
		return 0, err
	}
	if err := ix.commitLocked(); err != nil {
		return 0, err
	}
	return id, nil
}

// commitLocked derives the combined artifacts for the current
// main + delta contents and publishes them as a new epoch (called
// with liveMu held).
func (ix *Index) commitLocked() error {
	c, err := ix.live.Commit()
	if err != nil {
		return err
	}
	ov := livedex.NewOverlay(c, ix.live.MainIndex(), ix.live.MainStore())
	if err := ix.publishLocked(c.Meta, ov, nil, append(append([]string(nil), ix.liveBase...), c.DocNames...)); err != nil {
		return err
	}
	ix.maybeAutoMerge()
	return nil
}

// publishLocked wraps a fresh generation's store in the remembered
// fault layer and installs it as the next epoch (called with liveMu
// held).
func (ix *Index) publishLocked(meta *postings.Index, base storage.PageStore, pages [][]postings.Entry, docNames []string) error {
	store := base
	if ix.faultRules != nil {
		fs, err := storage.NewFaultStore(base, ix.faultSeed, ix.faultRules)
		if err != nil {
			return err
		}
		store = fs
	}
	v := ix.view()
	ix.publish(&idxView{
		epoch:    v.epoch + 1,
		ix:       meta,
		store:    store,
		base:     base,
		conv:     postings.NewConversionTable(meta, postings.DefaultMaxKey),
		pages:    pages,
		docNames: docNames,
	})
	return nil
}

// Merge compacts the pending delta into a new frequency-sorted main
// generation and atomically swaps it in as the next epoch. The merged
// generation is in-memory, or a BUFIR3 page file when LiveOptions.Dir
// is set. A no-op when the delta is empty. Merge holds the ingestion
// lock for its duration — concurrent Adds wait, queries do not (they
// keep reading the views they are bound to).
func (ix *Index) Merge() error {
	ix.liveMu.Lock()
	defer ix.liveMu.Unlock()
	if ix.live == nil {
		return errNotLive()
	}
	return ix.mergeLocked()
}

func (ix *Index) mergeLocked() error {
	if ix.live.DeltaDocs() == 0 && ix.live.DeltaEntries() == 0 {
		return nil
	}
	c, err := ix.live.Commit()
	if err != nil {
		return err
	}
	pages := livedex.Pages(c)
	names := append(append([]string(nil), ix.liveBase...), c.DocNames...)

	var newStore storage.PageStore
	var viewPages [][]postings.Entry
	if ix.liveOpts.Dir != "" {
		path := filepath.Join(ix.liveOpts.Dir, fmt.Sprintf("gen-%06d.bufir", ix.view().epoch+1))
		aux := &indexfile.Aux{DocNames: names, StopWords: ix.stopWords}
		if err := indexfile.WritePageFile(path, c.Meta, pages, aux); err != nil {
			return err
		}
		fs, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
		if err != nil {
			return err
		}
		// Queries bound to older views may still be mid-read on the
		// superseded generation, so no file closes before Index.Close.
		ix.files = append(ix.files, fs)
		newStore = fs
	} else {
		newStore = storage.NewStore(pages)
		viewPages = pages
	}
	if err := ix.live.ApplyMerge(c, newStore); err != nil {
		return err
	}
	ix.liveBase = names
	if err := ix.publishLocked(c.Meta, newStore, viewPages, names); err != nil {
		return err
	}
	ix.liveMerges++
	return nil
}

// maybeAutoMerge starts the single background merge slot if the
// commit that just published left the delta at or past the
// AutoMergeDocs threshold (called with liveMu held).
func (ix *Index) maybeAutoMerge() {
	if ix.liveOpts.AutoMergeDocs <= 0 || ix.live.DeltaDocs() < ix.liveOpts.AutoMergeDocs {
		return
	}
	if !ix.merging.CompareAndSwap(false, true) {
		return
	}
	ix.mergeWG.Add(1)
	go func() {
		defer ix.mergeWG.Done()
		defer ix.merging.Store(false)
		ix.liveMu.Lock()
		defer ix.liveMu.Unlock()
		if ix.live != nil {
			// Best effort: a failed background merge leaves the delta
			// intact for the next trigger or explicit Merge.
			_ = ix.mergeLocked()
		}
	}()
}

// DeltaDocs returns how many documents the pending delta holds (0 for
// read-only indexes).
func (ix *Index) DeltaDocs() int {
	ix.liveMu.Lock()
	defer ix.liveMu.Unlock()
	if ix.live == nil {
		return 0
	}
	return ix.live.DeltaDocs()
}

// LiveStats snapshots the ingestion state (zero value for read-only
// indexes, except Epoch).
func (ix *Index) LiveStats() LiveStats {
	ix.liveMu.Lock()
	defer ix.liveMu.Unlock()
	st := LiveStats{Epoch: ix.Epoch(), Merging: ix.merging.Load(), Merges: ix.liveMerges}
	if ix.live != nil {
		st.NumDocs = ix.live.NumDocs()
		st.DeltaDocs = ix.live.DeltaDocs()
		st.DeltaEntries = ix.live.DeltaEntries()
	} else {
		st.NumDocs = ix.meta().NumDocs
	}
	return st
}
