package bufir

import (
	"context"
	"sync"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/metrics"
)

// SharedSessionPool is a buffer pool served to several concurrent user
// sessions — the paper's §3.3 multi-user extension, option (b): the
// pool is managed as a single unit with a global registry of every
// active query. Under RAP a page is valued by the highest w_{q,t} its
// term has in any active query, so users benefit from pages cached for
// each other and one user's refinement cannot starve another's.
//
// A SharedSessionPool binds statically to the index view current at
// construction and never rebinds: its sessions keep answering over
// that generation even while a live index moves on (each Result's
// Epoch says which). Use Engine for a serving surface that follows
// live updates automatically.
type SharedSessionPool struct {
	ix   *Index
	v    *idxView
	pool *buffer.SharedPool

	mu     sync.Mutex
	nextID int
}

// NewSharedSessionPool creates a shared pool of the given page
// capacity over the index (0 selects the default of 128 pages; an
// empty policy defaults to RAP, the natural choice for a shared pool).
func (ix *Index) NewSharedSessionPool(bufferPages int, policy Policy) (*SharedSessionPool, error) {
	rc, err := resolveConfig(EvalOptions{}, policy, bufferPages, RAP, eval.TunedParams())
	if err != nil {
		return nil, err
	}
	v := ix.view()
	pool, err := buffer.NewShardedSharedPool(rc.bufferPages, 1, v.store, v.ix, rc.newPolicy)
	if err != nil {
		return nil, err
	}
	return &SharedSessionPool{ix: ix, v: v, pool: pool}, nil
}

// NewSession creates a session whose queries run against the shared
// pool. Close the session when the user leaves so its query weights
// stop protecting pages. Only cfg's EvalOptions and Fault apply here
// (the pool already fixed its policy and capacity); with CAdd and CIns
// both zero, shared-pool sessions default to the collection-tuned
// constants, like the Engine they underpin. Non-zero Fault options
// install the pool's retry/backoff policy — the pool is shared, so the
// last session to set them wins for everyone.
func (sp *SharedSessionPool) NewSession(cfg SessionConfig) (*SharedSession, error) {
	params, err := cfg.params(eval.TunedParams())
	if err != nil {
		return nil, err
	}
	sp.mu.Lock()
	id := sp.nextID
	sp.nextID++
	sp.mu.Unlock()
	view := sp.pool.UserView(id)
	ev, err := eval.NewEvaluator(sp.v.ix, view, sp.v.conv, params)
	if err != nil {
		return nil, err
	}
	applyFaultOptions(sp.pool.Manager(), cfg.Fault, nil)
	return &SharedSession{ev: ev, view: view, algo: cfg.Algorithm, epoch: sp.v.epoch}, nil
}

// BufferStats returns the shared pool's counters.
func (sp *SharedSessionPool) BufferStats() BufferStats {
	return sp.pool.Manager().Stats()
}

// SharedSession is one user's session on a SharedSessionPool. Its
// evaluator state is confined to each Search call, so different
// sessions of the same pool run fully in parallel (the pool's
// internals are latched and its counters atomic). A single session
// must still be driven by one goroutine at a time — its refinement
// steps build on each other; use Engine for a managed worker pool
// that enforces per-user ordering automatically.
//
// SharedSession implements Searcher, so a session can stand in
// anywhere a serving backend is expected.
type SharedSession struct {
	ev       *eval.Evaluator
	view     *buffer.UserView
	algo     Algorithm
	epoch    uint64
	counters metrics.ServingCounters
}

// Search is an exact alias of SearchContext with context.Background()
// and user 0: identical evaluation and identical serving-counter
// effects — the only difference is that a background context never
// cancels.
func (s *SharedSession) Search(q Query) (*Result, error) {
	return s.SearchContext(context.Background(), 0, q)
}

// SearchContext evaluates a query against the shared pool under ctx:
// canceling it (or an expiring deadline) stops the evaluation within
// one page read, with every shared-pool frame unpinned; the anytime
// partial answer is returned alongside the context's error
// (Result.Partial set).
//
// The user argument exists for the Searcher contract and is otherwise
// ignored: a SharedSession is already bound to one pool identity (its
// registry view), fixed at NewSession. Callers holding a bare session
// pass 0; a Router fanning out over sessions passes its request's
// user, which the session accepts and disregards.
func (s *SharedSession) SearchContext(ctx context.Context, user int, q Query) (*Result, error) {
	_ = user // identity is fixed by the pool's registry view
	start := time.Now()
	res, err := s.ev.EvaluateContext(ctx, s.algo, q)
	if res != nil {
		res.Epoch = s.epoch
	}
	recordOutcome(&s.counters, res, err, time.Since(start))
	return res, err
}

// RefineContext is an exact alias of SearchContext: a SharedSession
// keeps no cross-submission refinement state (snapshot resume and the
// result cache live in the Engine), so the refinement path and the
// plain path are the same evaluation. It exists for the Searcher
// contract.
func (s *SharedSession) RefineContext(ctx context.Context, user int, q Query) (*Result, error) {
	return s.SearchContext(ctx, user, q)
}

// Stats returns the session's serving counters. They obey the same
// outcome invariant as the Engine's: Queries == Completed + Timeouts +
// Canceled + Errors + Degraded at quiescence, with Partials counting
// the timed-out requests that carried an anytime answer.
func (s *SharedSession) Stats() EngineStats { return s.counters.Snapshot() }

// Close withdraws the session's query from the shared registry. It
// always returns nil; the error return exists for the Searcher
// contract. Idempotent.
func (s *SharedSession) Close() error {
	s.view.Close()
	return nil
}
