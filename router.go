package bufir

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bufir/internal/engine"
	"bufir/internal/metrics"
	"bufir/internal/rank"
)

// RouterConfig parameterizes a scatter-gather Router.
type RouterConfig struct {
	// TopN is the merged result size (default 20). Per-shard answers
	// are gathered at whatever size their backends produce and merged
	// down to this.
	TopN int
	// ShardTimeout, when > 0, is the per-shard deadline budget: each
	// fan-out call runs under a child context with this timeout, so one
	// slow partition cannot hold the whole query past its budget — the
	// shard is declared missing and the query degrades. 0 leaves shards
	// bounded only by the caller's context.
	ShardTimeout time.Duration
}

// Router is a document-partitioned scatter-gather searcher: it fans
// every query out to N per-partition backends (each typically an
// Engine over one shard of the index, with its own buffer pool),
// gathers the per-shard top-k, and merges by score with a
// deterministic tie-break.
//
// Correctness rests on the shard construction (see internal/shard):
// every partition carries the GLOBAL collection statistics — NumDocs,
// per-term DF/IDF/FMax, document lengths — so a document's normalized
// score is bit-identical to a single-index evaluation, and merged
// unfiltered top-k equals single-index top-k exactly. Filtered DF/BAF
// shards prune against a per-shard S_max that can only lag the global
// one, so shards filter no more aggressively than one index would —
// per-shard answers remain legal anytime rankings and the merge is one
// too.
//
// A shard that misses its deadline budget or faults is treated like a
// faulted term round in the single-engine FaultBudget path: the query
// completes over the remaining shards with Result.Degraded set (any
// answer beats no answer: a missing shard yields a Degraded anytime
// ranking, the §2.2 semantics). Only when every shard fails does the
// query error. The caller's own context expiring is still a
// timeout/cancellation, with the anytime merge of whatever had been
// gathered.
//
// Router implements Searcher; with one shard it is a transparent proxy
// (the backend's Result is passed through unchanged, byte for byte).
// It is safe for concurrent use whenever its backends are.
type Router struct {
	shards   []Searcher
	cfg      RouterConfig
	counters metrics.ServingCounters
}

// NewRouter builds a router over the per-partition backends, shard s
// serving partition s of the index (the shard.ForDoc assignment). A
// negative TopN or ShardTimeout is an error.
func NewRouter(shards []Searcher, cfg RouterConfig) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("bufir: router needs at least one shard")
	}
	if cfg.TopN < 0 || cfg.ShardTimeout < 0 {
		return nil, fmt.Errorf("bufir: negative router TopN %d or ShardTimeout %v", cfg.TopN, cfg.ShardTimeout)
	}
	if cfg.TopN == 0 {
		cfg.TopN = 20
	}
	return &Router{shards: shards, cfg: cfg}, nil
}

// SearchContext scatters the query to every shard under ctx (plus the
// per-shard budget), gathers the per-shard top-k, and merges by score
// descending with DocID ascending as the deterministic tie-break —
// exactly rank.TopN's order, so a merged ranking is indistinguishable
// from a single-index one. The outcome is filed in the router's serving
// counters with the engine's classifier. The router delivers its merge
// unchanged: the anytime answer of an expired caller context rides
// alongside the error, so the classifier counts it as a partial and its
// return is not used.
func (r *Router) SearchContext(ctx context.Context, user int, q Query) (*Result, error) {
	start := time.Now()
	res, err := r.scatter(ctx, user, q)
	engine.Classify(&r.counters, res, err, time.Since(start), engine.PartialOnDeadline)
	return res, err
}

// shardAnswer is one gathered fan-out response.
type shardAnswer struct {
	res *Result
	err error
}

// scatter fans one request out to every shard, gathers and merges.
func (r *Router) scatter(ctx context.Context, user int, q Query) (*Result, error) {
	if len(r.shards) == 1 {
		// Transparent single-shard proxy: the backend's Result passes
		// through unchanged (trace, counters, everything) — the
		// identity behind the router-vs-engine equivalence tests.
		return r.callShard(ctx, 0, user, q)
	}
	answers := make([]shardAnswer, len(r.shards))
	done := make(chan int, len(r.shards))
	for i := range r.shards {
		go func(i int) {
			res, err := r.callShard(ctx, i, user, q)
			answers[i] = shardAnswer{res: res, err: err}
			done <- i
		}(i)
	}
	for range r.shards {
		<-done
	}
	return r.merge(ctx, answers)
}

// callShard runs one fan-out call under the per-shard budget.
func (r *Router) callShard(ctx context.Context, i, user int, q Query) (*Result, error) {
	if r.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.ShardTimeout)
		defer cancel()
	}
	return r.shards[i].SearchContext(ctx, user, q)
}

// merge combines the gathered per-shard answers into one Result. Shard
// docid spaces are disjoint (assignment is by document), so the merge
// is a pure k-way top-n selection with no deduplication. The merged
// Result sums the paper's cost counters over every shard that
// delivered anything — including partial answers from shards that were
// cut mid-scan — and carries no per-term Trace: term rounds ran
// concurrently on every shard and have no single processing order.
func (r *Router) merge(ctx context.Context, answers []shardAnswer) (*Result, error) {
	out := &Result{}
	failed := 0
	var firstErr error
	for _, a := range answers {
		if a.err != nil && ctx.Err() == nil {
			// A shard miss on a live parent context: the shard's own
			// budget expired, or its backend failed. Its partial
			// answer, if any, still participates in the merge below.
			failed++
			if firstErr == nil {
				firstErr = a.err
			}
		}
		if a.res == nil {
			continue
		}
		out.Top = append(out.Top, a.res.Top...)
		out.Accumulators += a.res.Accumulators
		out.EntriesProcessed += a.res.EntriesProcessed
		out.PagesProcessed += a.res.PagesProcessed
		out.PagesRead += a.res.PagesRead
		out.SelectionInquiries += a.res.SelectionInquiries
		out.Faults += a.res.Faults
		if a.res.Smax > out.Smax {
			out.Smax = a.res.Smax
		}
		if a.res.Partial {
			out.Partial = true
		}
		if a.res.Degraded {
			out.Degraded = true
		}
	}
	// rank.SortDesc is the same tie-break predicate rank.TopN's heap
	// uses (score descending, DocID ascending among equal scores), so
	// the cross-shard merge of bit-identical per-doc scores equals a
	// single-index TopN over the union — the property the rank-safe
	// methods' router path relies on.
	rank.SortDesc(out.Top)
	if len(out.Top) > r.cfg.TopN {
		out.Top = out.Top[:r.cfg.TopN]
	}
	if err := ctx.Err(); err != nil {
		// The caller's own context died: every shard was cut with it.
		// The merge over what was gathered is the anytime answer.
		out.Partial = true
		return out, err
	}
	if failed == len(r.shards) {
		return nil, fmt.Errorf("bufir: all %d shards failed: %w", failed, firstErr)
	}
	if failed > 0 {
		// Missing shards degrade the answer, §2.2-style: a legal
		// ranking over the partitions that answered.
		out.Degraded = true
	}
	return out, nil
}

// Stats returns the router's serving counters. Each routed request
// lands in exactly one outcome bucket regardless of how many shards it
// fanned out to, so the invariant Queries == Completed + Timeouts +
// Canceled + Errors + Degraded holds here exactly as on an Engine.
func (r *Router) Stats() EngineStats { return r.counters.Snapshot() }

// ObsSnapshot implements metrics.Source: the router's own serving counters
// plus per-shard gauges, and — when the backends are Engines — their
// engine and buffer gauges aggregated, so one /metrics endpoint tells
// the whole deployment's story.
func (r *Router) ObsSnapshot() metrics.Snapshot {
	snap := metrics.Snapshot{Serving: r.counters.Snapshot()}
	for i, s := range r.shards {
		st := s.Stats()
		sg := metrics.ShardGauge{
			Shard:        i,
			Queries:      st.Queries,
			Completed:    st.Completed,
			Timeouts:     st.Timeouts,
			Canceled:     st.Canceled,
			Errors:       st.Errors,
			Degraded:     st.Degraded,
			PagesRead:    st.PagesRead,
			BufferMisses: -1,
		}
		if src, ok := s.(interface{ Obs() ObsSnapshot }); ok {
			sub := src.Obs()
			sg.BufferMisses = sub.Buffer.Misses
			snap.Engine.Workers += sub.Engine.Workers
			snap.Engine.QueueDepth += sub.Engine.QueueDepth
			snap.Engine.InFlight += sub.Engine.InFlight
			snap.Buffer.Capacity += sub.Buffer.Capacity
			snap.Buffer.InUse += sub.Buffer.InUse
			snap.Buffer.Pinned += sub.Buffer.Pinned
			snap.Buffer.Hits += sub.Buffer.Hits
			snap.Buffer.Misses += sub.Buffer.Misses
			snap.Buffer.Evictions += sub.Buffer.Evictions
			snap.Buffer.Policy = sub.Buffer.Policy
			snap.QueueWait.Merge(sub.QueueWait)
			snap.Service.Merge(sub.Service)
			snap.RetryWait.Merge(sub.RetryWait)
		}
		snap.Shards = append(snap.Shards, sg)
	}
	return snap
}

// Close closes every shard backend, joining their errors. Idempotent
// when the backends' Close is.
func (r *Router) Close() error {
	var errs []error
	for _, s := range r.shards {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
