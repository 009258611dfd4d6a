package buffer

import (
	"context"
	"sync"

	"bufir/internal/postings"
)

// Pool is the buffer-manager surface the query evaluator needs. It is
// implemented by *Manager and *UserView (a user's handle on a
// SharedPool).
type Pool interface {
	// FetchContext fixes a page in the pool and reports whether this
	// call missed (initiated a disk read); the caller must Unpin the
	// frame. Evaluators count misses from this flag — never from
	// shared Stats deltas — so per-session read counts stay exact when
	// many sessions run on one pool. A canceled or expired request
	// abandons its disk read (within the simulated latency, not after
	// it) and returns ctx's error with no frame pinned.
	FetchContext(ctx context.Context, id postings.PageID) (*Frame, bool, error)
	// Unpin releases one pin.
	Unpin(f *Frame)
	// ResidentPages reports b_t for a term.
	ResidentPages(t postings.TermID) int
	// SetQuery announces the caller's current query weights.
	SetQuery(w QueryWeights)
	// Stats returns pool counters.
	Stats() Stats
}

var _ Pool = (*UserView)(nil)

// SharedPool realizes the second multi-user option of §3.3: a single
// buffer pool managed as one unit, with a global registry of every
// active user's query. Under RAP, a page's replacement value uses the
// *highest* w_{q,t} of its term across all registered queries — the
// paper's suggestion for terms shared by many queries — so one user's
// refinement cannot evict pages another user is actively ranking
// with, and users benefit from pages cached for each other.
//
// SharedPool is safe for concurrent use by many sessions; scalability
// under parallel workers comes from the manager's latch shards.
type SharedPool struct {
	mgr *Manager

	mu      sync.Mutex
	weights map[int]QueryWeights
	seq     uint64

	// applyMu orders pushes of combined weights to the manager:
	// a stale snapshot (built before a concurrent registry update) is
	// dropped rather than applied over a newer one.
	applyMu    sync.Mutex
	appliedSeq uint64
}

// NewShardedSharedPool creates a shared pool over a Manager of the
// given capacity and latch-shard count (see NewManager, whose
// arguments these are).
func NewShardedSharedPool(capacity, nshards int, store PageReader, ix *postings.Index, newPolicy func(capacity int) Policy) (*SharedPool, error) {
	mgr, err := NewManager(capacity, nshards, store, ix, newPolicy)
	if err != nil {
		return nil, err
	}
	return &SharedPool{mgr: mgr, weights: make(map[int]QueryWeights)}, nil
}

// UserView returns user id's handle on the pool. Each concurrent user
// (session) gets its own view; queries announced through a view are
// combined with every other user's before reaching the replacement
// policy.
func (sp *SharedPool) UserView(id int) *UserView {
	return &UserView{pool: sp, id: id}
}

// Manager exposes the underlying manager for stats, maintenance and
// the retry policy.
func (sp *SharedPool) Manager() *Manager { return sp.mgr }

// ActiveUsers returns the number of users with a query currently in
// the shared registry. Engine shutdown withdraws every session, so
// after a clean Close this is zero — the no-leak property the
// lifecycle tests assert.
func (sp *SharedPool) ActiveUsers() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.weights)
}

// setUserQuery records one user's weights and pushes the combined
// function to the replacement policy. Snapshots are sequence-numbered
// under the registry lock; a snapshot that lost a race to a newer one
// is discarded, so the policy always ends up with the weights of the
// newest registry state.
func (sp *SharedPool) setUserQuery(id int, w QueryWeights) {
	sp.mu.Lock()
	if w == nil {
		delete(sp.weights, id)
	} else {
		sp.weights[id] = w
	}
	views := make([]QueryWeights, 0, len(sp.weights))
	for _, uw := range sp.weights {
		views = append(views, uw)
	}
	sp.seq++
	seq := sp.seq
	sp.mu.Unlock()

	sp.applyMu.Lock()
	defer sp.applyMu.Unlock()
	if seq <= sp.appliedSeq {
		return // a newer registry snapshot has already been applied
	}
	sp.appliedSeq = seq
	sp.mgr.SetQuery(func(t postings.TermID) float64 {
		max := 0.0
		for _, uw := range views {
			if v := uw(t); v > max {
				max = v
			}
		}
		return max
	})
}

// UserView is one user's handle on a SharedPool; it implements Pool.
type UserView struct {
	pool *SharedPool
	id   int
}

// FetchContext implements Pool.
func (uv *UserView) FetchContext(ctx context.Context, id postings.PageID) (*Frame, bool, error) {
	return uv.pool.mgr.FetchContext(ctx, id)
}

// Unpin implements Pool.
func (uv *UserView) Unpin(f *Frame) { uv.pool.mgr.Unpin(f) }

// ResidentPages implements Pool.
func (uv *UserView) ResidentPages(t postings.TermID) int { return uv.pool.mgr.ResidentPages(t) }

// SetQuery implements Pool: the user's weights join the registry and
// the combined maximum is what the policy sees.
func (uv *UserView) SetQuery(w QueryWeights) { uv.pool.setUserQuery(uv.id, w) }

// Stats implements Pool (shared counters).
func (uv *UserView) Stats() Stats { return uv.pool.mgr.Stats() }

// Close removes the user's query from the registry (call when the
// session ends so its weights stop protecting pages).
func (uv *UserView) Close() { uv.pool.setUserQuery(uv.id, nil) }
