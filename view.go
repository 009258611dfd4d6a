package bufir

import (
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// idxView is one published index generation: everything a query needs,
// bound together so no query ever mixes state from two generations.
// Views are immutable after publication; live ingestion and merges
// publish fresh views instead of mutating, and every serving surface
// (Session, Engine, Router) binds a query to exactly one
// view.
//
// The epoch is the invalidation key the rest of the system hangs off:
// buffer pools are per-view (a swap starts cold — generation-tagged
// frames by construction, since a manager only ever reads one view's
// store), results carry the epoch they were computed at, and the RAP
// conversion table is rebuilt for every published view.
type idxView struct {
	// epoch increases by one on every publication (commit or merge
	// swap). 0 is the generation the index was constructed with.
	epoch uint64
	// ix is the generation's metadata; for live commits it is the
	// combined (main + delta) metadata livedex derives.
	ix *postings.Index
	// store serves the generation's pages: base, wrapped in the
	// InjectFaults layer when there is one.
	store storage.PageStore
	// base is the generation's undecorated store: the physical store
	// for static generations, a storage.Store over the commit's pages
	// for live ones. Index.pagePayloads reads every page off it.
	base storage.PageStore
	// conv is the RAP conversion table over this generation's
	// statistics.
	conv *postings.ConversionTable
	// docNames names the generation's documents; nil when only
	// synthetic doc<N> names exist.
	docNames []string
}

// view returns the index's current published view. The pointer is the
// binding identity: two loads returning the same pointer see the same
// generation, and a changed pointer — even at an unchanged epoch, as
// after InjectFaults — means sessions must rebind.
func (ix *Index) view() *idxView { return ix.cur.Load() }

// meta returns the current view's index metadata.
func (ix *Index) meta() *postings.Index { return ix.view().ix }

// pageStore returns the current view's page store.
func (ix *Index) pageStore() storage.PageStore { return ix.view().store }

// publish installs v as the current view.
func (ix *Index) publish(v *idxView) { ix.cur.Store(v) }

// Epoch returns the index's current generation number: 0 at
// construction, +1 for every live commit (Add/AddTerms) and every
// merge swap. Results are stamped with the epoch they were evaluated
// at (Result.Epoch), so Epoch is the reference point for "did this
// answer come from the current generation".
func (ix *Index) Epoch() uint64 { return ix.view().epoch }

// newStaticIndex wraps a built generation in an Index, publishing its
// epoch-0 view.
func newStaticIndex(pix *postings.Index, store storage.PageStore, docNames []string) *Index {
	out := &Index{}
	out.publish(&idxView{
		ix:       pix,
		store:    store,
		base:     store,
		conv:     postings.NewConversionTable(pix, postings.DefaultMaxKey),
		docNames: docNames,
	})
	return out
}
