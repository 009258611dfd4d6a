// Engine-level incremental refinement: the per-user carried evaluation
// snapshot of User.Step, surviving across SubmitContext calls, plus a
// small bounded result cache keyed by canonicalized query, so
// resubmitting a query the engine already answered — permuted term
// order and split duplicates included — costs no evaluation at all.
package engine

import (
	"container/list"
	"sync"

	"bufir/internal/eval"
	"bufir/internal/rank"
)

// refineCacheEntries bounds the result cache (LRU over {user,
// canonical query}).
const refineCacheEntries = 256

// refineKey identifies a cached result: one user's canonicalized
// query at one index epoch. Results are kept per-user — the cache
// mirrors the paper's per-user refinement sessions, and a user's
// resubmission hitting another user's entry would cross
// request-isolation lines the rest of the engine maintains. The epoch
// is the staleness guard: a result computed against generation e must
// never answer a resubmission after a live commit or merge moved the
// index to e+1 (scores, and even the matching document set, may have
// changed). Stale entries age out of the LRU on their own.
type refineKey struct {
	user  int
	epoch uint64
	key   uint64
}

// refineEntry is one cached outcome: the completed result and the
// snapshot that evaluation produced (nil under BAF), so returning to
// a cached query also restores its resume point.
type refineEntry struct {
	key  refineKey
	res  *eval.Result
	snap *eval.Snapshot
}

// refineCache is a mutex-guarded LRU over refineEntry. Workers of
// different users touch it concurrently; the critical sections are a
// map lookup plus a list splice, far below the latch costs of the
// buffer pool underneath.
type refineCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	idx map[refineKey]*list.Element
}

func newRefineCache(capacity int) *refineCache {
	return &refineCache{cap: capacity, ll: list.New(), idx: make(map[refineKey]*list.Element)}
}

// get returns the entry for k, promoting it to most-recent.
func (c *refineCache) get(k refineKey) (*refineEntry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*refineEntry), true
}

// put inserts or refreshes k's entry, evicting the least-recent entry
// past capacity.
func (c *refineCache) put(k refineKey, res *eval.Result, snap *eval.Snapshot) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[k]; ok {
		el.Value = &refineEntry{key: k, res: res, snap: snap}
		c.ll.MoveToFront(el)
		return
	}
	c.idx[k] = c.ll.PushFront(&refineEntry{key: k, res: res, snap: snap})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.idx, tail.Value.(*refineEntry).key)
	}
}

// cachedCopy returns the result to hand a cache-hit caller: the
// ranking fields of the original evaluation with every cost counter
// zeroed (no I/O or scanning happened — zeroing is what keeps the
// engine's PagesRead equal to the buffer pool's miss count) and
// Cached set. Top is copied so callers cannot alias the cached
// ranking.
func cachedCopy(orig *eval.Result) *eval.Result {
	cp := &eval.Result{
		Top:          append([]rank.ScoredDoc(nil), orig.Top...),
		Accumulators: orig.Accumulators,
		Smax:         orig.Smax,
		Epoch:        orig.Epoch,
		Cached:       true,
	}
	return cp
}

// countRefine files one refine-path step in the refinement counters:
// a cache hit, or a miss that may have resumed; and whether the step
// invalidated the carried snapshot.
func (e *Engine) countRefine(res *eval.Result, invalidated bool, err error) {
	if res != nil && res.Cached {
		e.counters.RefineHits.Add(1)
	} else {
		e.counters.RefineMisses.Add(1)
		if err == nil && res.ReusedRounds > 0 {
			e.counters.RefineResumes.Add(1)
			e.counters.RefineReusedRounds.Add(int64(res.ReusedRounds))
		}
	}
	if invalidated {
		e.counters.RefineInvalidations.Add(1)
	}
}
