package bufir

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/metrics"
)

// DeadlinePolicy selects what a request that hits its deadline
// returns (EngineConfig.OnDeadline).
type DeadlinePolicy = engine.DeadlinePolicy

const (
	// AbortOnDeadline makes an expired request fail with
	// context.DeadlineExceeded (the default).
	AbortOnDeadline = engine.AbortOnDeadline
	// PartialOnDeadline makes an expired request return its anytime
	// answer — the top-n over everything accumulated so far, with
	// Result.Partial set and cut-short term scans marked Truncated in
	// the trace — and a nil error.
	PartialOnDeadline = engine.PartialOnDeadline
)

// EngineConfig parameterizes a concurrent query engine. The evaluation
// knobs live in the embedded EvalOptions.
type EngineConfig struct {
	// EvalOptions are the evaluation knobs shared with SessionConfig;
	// with CAdd and CIns both zero the engine defaults to the
	// collection-tuned constants.
	EvalOptions
	// Workers is the number of serving goroutines (default 4).
	Workers int
	// Shards is the number of latches the buffer pool is split into
	// (with its capacity) by page-id hash (default 1). It sets latch
	// granularity only: at every value a miss's disk read runs outside
	// the latch and concurrent requests for one page share one read.
	// With more than one worker, shards ≈ workers keeps latch
	// contention low; one shard keeps one global replacement order.
	Shards int
	// BufferPages is the shared pool capacity in pages (default 128).
	BufferPages int
	// Policy is the replacement policy (default RAP, the natural
	// choice for a shared pool: §3.3's global query registry keeps one
	// user's pages safe from another's refinement).
	Policy Policy
	// MaxQueue, when > 0, turns admission fail-fast: at most MaxQueue
	// requests wait in the queue and SubmitContext returns ErrQueueFull
	// instead of blocking when it is full.
	MaxQueue int
	// QueryTimeout, when > 0, is the default per-request deadline,
	// measured from submission (queue wait counts against it). A tighter
	// deadline on the context passed to SubmitContext still wins.
	QueryTimeout time.Duration
	// OnDeadline selects the deadline outcome: AbortOnDeadline
	// (default) or PartialOnDeadline.
	OnDeadline DeadlinePolicy
	// Obs configures the optional observability endpoint. Zero value:
	// no listener, no overhead beyond the always-on atomic counters.
	// Under Open it configures the one endpoint of the deployment (see
	// ObsOptions).
	Obs ObsOptions
	// Fault configures the fault-tolerant I/O path of the shared pool.
	// Zero value: loads fail on the first error and a fully-pinned pool
	// fails fast — the historical semantics, at zero cost.
	Fault FaultToleranceOptions
}

// FaultToleranceOptions configures how the engine's buffer pool rides
// out I/O trouble. All knobs default to off; turning them on costs
// nothing until a load actually fails or a pool actually fills with
// pins. Pair with EvalOptions.FaultBudget to convert permanent page
// faults into degraded (rather than failed) queries.
type FaultToleranceOptions struct {
	// Retries is how many times a failed page load is re-attempted by
	// the loading session (with exponential backoff) before the error
	// surfaces. Context errors and permanent faults are never retried.
	Retries int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt up to 100×RetryBackoff (default 500µs when Retries > 0).
	RetryBackoff time.Duration
	// VictimWait bounds how long a fetch waits for an evictable frame
	// when every frame of its shard is pinned, instead of failing
	// immediately: momentary full-pin under load is backpressure, not
	// an error. 0 keeps the fail-fast behavior.
	VictimWait time.Duration
}

// ObsOptions configures the optional HTTP observability endpoint
// (Prometheus-text /metrics, JSON /statusz, pprof). NewEngine serves
// the engine's snapshot on it. Open starts one endpoint for the whole
// deployment instead of one per partition engine: the router's
// aggregated snapshot with per-shard gauges when sharded, the
// engine's otherwise.
type ObsOptions struct {
	// Addr, when non-empty, is the listen address (e.g.
	// "127.0.0.1:9090"; ":0" picks a free port — read it back with
	// Engine.ObsAddr or Service.ObsAddr). Requires a blank import of
	// bufir/obshttp, which links the HTTP implementation; without it
	// NewEngine and Open fail with ErrObsUnavailable. The endpoint has
	// no authentication: bind it to localhost or a private interface.
	Addr string
}

// ObsSnapshot is the full observability snapshot: serving counters,
// queue-wait and service latency histograms, engine gauges, and the
// buffer pool's live state.
type ObsSnapshot = metrics.Snapshot

// EngineStats is a snapshot of the engine's atomic serving counters.
type EngineStats = metrics.ServingSnapshot

// Engine serves a stream of (user, query) requests on a worker pool of
// goroutines over one shared buffer pool. Requests of the same user
// execute in submission order (refinement steps build on each other);
// requests of different users run in parallel. Engine is safe for
// concurrent use from any number of goroutines; with Workers == 1 it
// executes the global stream in exact submission order, reproducing
// serial results bit-for-bit.
//
// Every request runs under a context: cancel it (or let its deadline
// or the engine's QueryTimeout fire) and the request stops within one
// page read with every buffer frame unpinned. See SubmitContext,
// SearchContext, and Shutdown.
type Engine struct {
	inner *engine.Engine
	ix    *Index
	obs   metrics.HTTPServer // nil unless ObsOptions.Addr was set
}

// poolSource adapts an Index to the internal engine's Source: one
// shared buffer pool per published view, built lazily under a mutex
// the first time a worker (or the obs path) asks after a publication.
// A new pool starts cold — the generation-tagged invalidation the
// live-update design requires falls out of pool-per-view construction:
// no frame of the old generation is reachable through the new pool.
// The remembered fault-tolerance options (and the engine's retry
// hook, once installed) are re-applied to every pool. An Engine's
// source has cfg.Shards latch shards; a Session's has one.
type poolSource struct {
	ix     *Index
	rc     resolvedConfig
	shards int
	fault  FaultToleranceOptions

	mu      sync.Mutex
	v       *idxView
	b       engine.Binding
	onRetry func(time.Duration)
}

// Binding returns the binding of the index's current view, building
// its pool on first sight. On pool-construction failure the last good
// binding is returned alongside the error (per the Source contract).
func (ps *poolSource) Binding() (engine.Binding, error) {
	v := ps.ix.view()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if v == ps.v {
		return ps.b, nil
	}
	pool, err := buffer.NewShardedSharedPool(ps.rc.bufferPages, ps.shards, v.store, v.ix, ps.rc.newPolicy)
	if err != nil {
		return ps.b, err
	}
	applyFaultOptions(pool.Manager(), ps.fault, ps.onRetry)
	ps.v = v
	ps.b = engine.Binding{Epoch: v.epoch, Key: v, Ix: v.ix, Conv: v.conv, Pool: pool}
	return ps.b, nil
}

// setOnRetry installs the engine's retry hook — the engine is
// constructed after the first pool, so the hook arrives late — and
// re-applies the fault options to the current pool so it feeds the
// serving counters too.
func (ps *poolSource) setOnRetry(onRetry func(time.Duration)) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.onRetry = onRetry
	if ps.b.Pool != nil {
		applyFaultOptions(ps.b.Pool.Manager(), ps.fault, onRetry)
	}
}

// Ticket is a handle on a submitted request.
type Ticket struct {
	job *engine.Job
}

// Wait blocks until the request completes and returns its result.
func (t *Ticket) Wait() (*Result, error) { return t.job.Wait() }

// Service returns the request's service time (valid after Wait).
func (t *Ticket) Service() time.Duration { return t.job.Service() }

// NewEngine creates a concurrent query engine over the index.
func (ix *Index) NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	rc, err := resolveConfig(cfg.EvalOptions, cfg.Policy, cfg.BufferPages, RAP, eval.TunedParams())
	if err != nil {
		return nil, err
	}
	src := &poolSource{ix: ix, rc: rc, shards: cfg.Shards, fault: cfg.Fault}
	inner, err := engine.New(src, engine.Config{
		Workers:      cfg.Workers,
		Algo:         cfg.Algorithm,
		Params:       rc.params,
		MaxQueue:     cfg.MaxQueue,
		QueryTimeout: cfg.QueryTimeout,
		OnDeadline:   cfg.OnDeadline,
	})
	if err != nil {
		return nil, err
	}
	// Installed after engine construction so the OnRetry hook can feed
	// the serving counters, but before any request can run.
	src.setOnRetry(inner.RecordRetry)
	e := &Engine{inner: inner, ix: ix}
	if cfg.Obs.Addr != "" {
		srv, err := metrics.StartHTTPServer(cfg.Obs.Addr, inner)
		if err != nil {
			inner.Close()
			return nil, err
		}
		e.obs = srv
	}
	return e, nil
}

// policyFactory maps a Policy name to a constructor of fresh policy
// instances (sharded pools need one instance per shard, each built
// with its shard's capacity slice). It delegates to the canonical
// buffer.PolicyFactory, so the paper's three policies are reachable
// from every public construction surface and every other name is
// refused with ErrUnknownPolicy.
func policyFactory(p Policy) (func(capacity int) buffer.Policy, error) {
	f, err := buffer.PolicyFactory(string(p))
	if err != nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownPolicy, p)
	}
	return f, nil
}

// SearchContext executes one request for the user and blocks until
// its result is ready; calls for the same user from one goroutine
// execute in call order. Canceling ctx stops the request within one
// page read. With EngineConfig.QueryTimeout set, the request
// additionally carries that deadline from submission.
func (e *Engine) SearchContext(ctx context.Context, user int, q Query) (*Result, error) {
	return e.inner.SearchContext(ctx, user, q)
}

// SubmitContext enqueues a request bound to ctx and returns
// immediately with a Ticket. With EngineConfig.MaxQueue set a full
// queue sheds the request: (nil, ErrQueueFull).
func (e *Engine) SubmitContext(ctx context.Context, user int, q Query) (*Ticket, error) {
	j, err := e.inner.SubmitContext(ctx, user, q)
	if err != nil {
		return nil, err
	}
	return &Ticket{job: j}, nil
}

// MergeContext compacts the index's pending delta into a new main
// generation (no-op when nothing is pending). Queries keep flowing
// throughout; concurrent ingestion waits for the merge.
func (e *Engine) MergeContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.ix.Merge()
}

// Epoch reports the index's current generation number.
func (e *Engine) Epoch() uint64 { return e.ix.Epoch() }

// Stats returns the engine's atomic serving counters.
func (e *Engine) Stats() EngineStats { return e.inner.Counters() }

// BufferStats returns the shared pool's hit/miss/eviction counters.
func (e *Engine) BufferStats() BufferStats { return e.inner.BufferStats() }

// Obs returns the full observability snapshot: counters, queue-wait
// and service latency histograms (P50/P95/P99), engine gauges, and the
// buffer pool's live state. Always available — the HTTP endpoint is
// just a renderer over this same snapshot.
func (e *Engine) Obs() ObsSnapshot { return e.inner.ObsSnapshot() }

// ObsAddr returns the observability endpoint's bound listen address,
// or "" when none was configured. Useful with ObsOptions.Addr ":0".
func (e *Engine) ObsAddr() string {
	if e.obs == nil {
		return ""
	}
	return e.obs.Addr()
}

// Close drains pending requests, stops the workers, and withdraws all
// sessions from the shared query registry, waiting as long as the
// drain takes. The returned error is the observability listener's
// shutdown error, if one was configured; the drain itself cannot fail.
// Idempotent.
func (e *Engine) Close() error {
	e.inner.Close()
	if e.obs != nil {
		return e.obs.Close()
	}
	return nil
}

// Shutdown is Close with a deadline: admission stops immediately, and
// if ctx expires before the queue drains, every remaining request is
// canceled — each stops within one page read — before Shutdown
// returns ctx.Err(). A nil return means every accepted request ran to
// completion. Safe to call concurrently with Close and itself.
func (e *Engine) Shutdown(ctx context.Context) error {
	err := e.inner.Shutdown(ctx)
	if e.obs != nil {
		_ = e.obs.Close()
	}
	return err
}
