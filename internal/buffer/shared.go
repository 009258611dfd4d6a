package buffer

import (
	"context"
	"maps"
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
	// SetQuery announces the caller's current query weights; the pool
	// copies w, so the caller may reuse it once the call returns.
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
// under parallel workers comes from the manager's latch shards. The
// registry itself lives in the Manager (see announce): a SharedPool is
// the manager plus per-user handles on it.
type SharedPool struct {
	mgr *Manager
}

// NewShardedSharedPool creates a shared pool over a Manager of the
// given capacity and latch-shard count (see NewManager, whose
// arguments these are).
func NewShardedSharedPool(capacity, nshards int, store PageReader, ix *postings.Index, newPolicy func(capacity int) Policy) (*SharedPool, error) {
	mgr, err := NewManager(capacity, nshards, store, ix, newPolicy)
	if err != nil {
		return nil, err
	}
	return &SharedPool{mgr: mgr}, nil
}

// UserView returns user id's handle on the pool. Each concurrent user
// (session) gets its own view; queries announced through a view are
// combined with every other user's before reaching the replacement
// policy.
func (sp *SharedPool) UserView(id int) *UserView {
	return &UserView{pool: sp, who: announcer{view: true, user: id}}
}

// Manager exposes the underlying manager for stats, maintenance and
// the retry policy.
func (sp *SharedPool) Manager() *Manager { return sp.mgr }

// ActiveUsers returns the number of users with a query currently in
// the shared registry. Engine shutdown withdraws every session, so
// after a clean Close this is zero — the no-leak property the
// lifecycle tests assert.
func (sp *SharedPool) ActiveUsers() int {
	r := &sp.mgr.queries
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.by)
}

// announcer names who announced a query: a shared pool's user, or —
// the zero value — the pool's owner calling Manager.SetQuery.
type announcer struct {
	view bool
	user int
}

// queryRegistry holds every announcer's current query and, per term,
// the highest weight any of them gives it: what each latch shard's
// policy has been told, once the deltas issued so far are applied.
type queryRegistry struct {
	mu sync.Mutex
	// by holds a copy of each announcer's query, in maps the registry
	// owns; spare is the one its last replacement left, emptied, for the
	// next announcement to copy into.
	by    map[announcer]QueryWeights
	spare QueryWeights
	// max has an entry for every term some query holds with a positive
	// weight.
	max map[postings.TermID]float64
	// delta is the scratch the changes of one announcement are
	// collected in, reused under mu.
	delta []TermWeight
}

// announce records a copy of the announcer's new query (nil withdraws
// it) and tells every shard's policy which terms' combined weights
// changed. A refinement step changes one to three terms, and a term
// whose weight the announcer did not touch compares equal bit for bit,
// so the delta — and the work under each shard's latch — is
// proportional to the step, not to the pool or the number of users;
// only the comparison and the copy walk the query's terms.
//
// The registry lock is held from the comparison to the last shard's
// application: deltas are not idempotent, so every shard must see
// every delta, in the order the registry produced them. (Two racing
// announcements serialize here for the few microseconds a delta takes
// to apply.) Lock order is registry, then one shard at a time.
func (m *Manager) announce(who announcer, w QueryWeights) {
	r := &m.queries
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.by[who]
	if w == nil {
		delete(r.by, who)
	} else {
		cur := r.spare
		if cur == nil {
			cur = make(QueryWeights, len(w))
		}
		r.spare = nil
		maps.Copy(cur, w)
		r.by[who] = cur
	}
	r.delta = r.delta[:0]
	for t, ov := range old {
		if nv := w[t]; nv != ov {
			r.reweigh(t, ov, nv)
		}
	}
	for t, nv := range w {
		if _, had := old[t]; !had && nv != 0 {
			r.reweigh(t, 0, nv)
		}
	}
	if old != nil {
		clear(old)
		r.spare = old
	}
	if len(r.delta) == 0 {
		return
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.policy.SetQuery(r.delta)
		sh.mu.Unlock()
	}
}

// reweigh updates max[t] after one announcer's weight for t went from
// ov to nv, appending to delta if the maximum moved. The other queries
// are rescanned only when the announcer held the maximum and lowered
// it.
func (r *queryRegistry) reweigh(t postings.TermID, ov, nv float64) {
	// Anything that is not a positive number — negative, NaN — weighs 0.
	if !(ov > 0) {
		ov = 0
	}
	if !(nv > 0) {
		nv = 0
	}
	cur := r.max[t]
	m := nv
	if nv < cur {
		if ov < cur {
			return // another query holds the maximum
		}
		for _, q := range r.by {
			if v := q[t]; v > m {
				m = v
			}
		}
	}
	if m == cur {
		return
	}
	if m > 0 {
		r.max[t] = m
	} else {
		delete(r.max, t)
	}
	r.delta = append(r.delta, TermWeight{Term: t, Weight: m})
}

// UserView is one user's handle on a SharedPool; it implements Pool.
type UserView struct {
	pool *SharedPool
	who  announcer
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
func (uv *UserView) SetQuery(w QueryWeights) { uv.pool.mgr.announce(uv.who, w) }

// Stats implements Pool (shared counters).
func (uv *UserView) Stats() Stats { return uv.pool.mgr.Stats() }

// Close removes the user's query from the registry (call when the
// session ends so its weights stop protecting pages).
func (uv *UserView) Close() { uv.pool.mgr.announce(uv.who, nil) }
