// Package engine implements the concurrent serving layer: a worker
// pool of goroutines executing a stream of (user, query) requests
// against one shared buffer pool — the multi-user serving shape the
// paper's §3.3 leaves as future work, built here on three guarantees
// from the layers below:
//
//   - per-session evaluator state is call-confined (internal/eval), so
//     one evaluator per user is re-entrant;
//   - the shared pool's latches are sharded by page hash and disk
//     reads happen outside the latch (internal/buffer.Manager),
//     so workers overlap I/O instead of convoying;
//   - all counters are atomic (internal/metrics.ServingCounters,
//     buffer and storage stats), so experiment numbers stay exact
//     under parallelism.
//
// Ordering model: requests of the same user execute in submission
// order (a user's refinement step must see the previous step's
// answer); requests of different users run in parallel, bounded by the
// worker count. With one worker, execution order is exactly global
// submission order, which is how the single-worker configuration
// reproduces the serial experiments bit-for-bit.
//
// Request lifecycle: every job carries a context derived from the
// submitter's (plus the engine's QueryTimeout, when set). The
// evaluator checks it at every term round and page boundary and the
// buffer manager honors it mid-disk-read, so a canceled or expired
// request stops within one page read, with every frame unpinned and
// its registry entry withdrawn by engine shutdown. Admission control
// is fail-fast: with MaxQueue set, a submit that finds the queue full
// returns ErrQueueFull instead of blocking.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/metrics"
	"bufir/internal/obs"
	"bufir/internal/postings"
)

// Sentinel errors, testable with errors.Is.
var (
	// ErrEngineClosed is returned by SubmitContext/SearchContext after
	// Close or Shutdown has begun.
	ErrEngineClosed = errors.New("engine: closed")
	// ErrQueueFull is returned by SubmitContext when MaxQueue is set and the
	// admission queue is at capacity (the request was shed, not
	// queued).
	ErrQueueFull = errors.New("engine: queue full")
)

// DeadlinePolicy selects what a request that hits its deadline
// returns.
type DeadlinePolicy int

const (
	// AbortOnDeadline returns (nil, context.DeadlineExceeded): the
	// request is charged for the pages it read but yields no answer.
	AbortOnDeadline DeadlinePolicy = iota
	// PartialOnDeadline returns the evaluator's anytime answer — the
	// top-n over everything accumulated when the deadline fired, with
	// Result.Partial set and cut-short term scans marked Truncated —
	// and a nil error. DF and BAF are round-structured filters (§2.2),
	// so stopping after any round yields a valid, if less refined,
	// ranking.
	PartialOnDeadline
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of serving goroutines (>= 1).
	Workers int
	// Algo is the evaluation algorithm every session runs.
	Algo eval.Algorithm
	// Params are the evaluator tuning knobs shared by all sessions.
	Params eval.Params
	// QueueDepth bounds the number of submitted-but-unfinished
	// requests before SubmitContext blocks (0 = 4×Workers, minimum 64).
	// Ignored when MaxQueue is set.
	QueueDepth int
	// MaxQueue, when > 0, switches admission to fail-fast: the queue
	// holds at most MaxQueue requests and SubmitContext returns ErrQueueFull
	// instead of blocking when it is at capacity.
	MaxQueue int
	// QueryTimeout, when > 0, is the default per-request deadline,
	// measured from submission (queue wait counts against it, as it does
	// for the paper's interactive users). A tighter caller deadline
	// still wins; SubmitContext composes both.
	QueryTimeout time.Duration
	// OnDeadline selects the deadline outcome: abort with
	// context.DeadlineExceeded (default) or return the anytime
	// partial answer.
	OnDeadline DeadlinePolicy
	// Refine enables incremental refinement reuse: per-user snapshot
	// resume across ADD-ONLY resubmissions and a bounded result cache
	// over canonicalized queries. Zero value = off (every submission
	// evaluates cold, the historical behavior).
	Refine RefineConfig
}

// Job is one submitted request. Wait blocks until it completes.
type Job struct {
	User  int
	Query eval.Query

	ctx    context.Context
	cancel context.CancelFunc

	us   *userState
	prev <-chan struct{} // previous job of the same user (nil if none)
	done chan struct{}

	enqueued time.Time

	res     *eval.Result
	err     error
	wait    time.Duration
	service time.Duration
}

// Wait blocks until the job has executed and returns its result.
func (j *Job) Wait() (*eval.Result, error) {
	<-j.done
	return j.res, j.err
}

// Cancel withdraws the request: if it is still queued it completes
// immediately with context.Canceled; if it is mid-evaluation it stops
// within one page read. Safe to call at any time, including after the
// job finished.
func (j *Job) Cancel() { j.cancel() }

// Service returns the job's service time (dequeue to completion),
// valid after Wait returns.
func (j *Job) Service() time.Duration { return j.service }

// QueueWait returns how long the job sat between submission and execution
// start — queue time plus any parking behind the same user's previous
// job — valid after Wait returns.
func (j *Job) QueueWait() time.Duration { return j.wait }

// Binding is one index generation as the engine consumes it: the
// metadata, conversion table and shared buffer pool of a single
// published view, plus the identity that tells sessions when to
// rebind. All requests evaluated under one Binding read one
// generation — the pool is per-binding, so no frame ever mixes pages
// of two generations.
type Binding struct {
	// Epoch is the generation number results are stamped with.
	Epoch uint64
	// Key is the binding identity: comparable, changes exactly when
	// sessions must rebind (a new Key can carry the same Epoch — e.g.
	// a fault-layer rewrap of the same logical generation).
	Key any
	// Ix and Conv are the generation's metadata and RAP conversion
	// table; Pool is the shared buffer pool serving its pages.
	Ix   *postings.Index
	Conv *postings.ConversionTable
	Pool *buffer.SharedPool
}

// Source yields the current Binding. Implementations must be safe for
// concurrent use and cheap when the binding is unchanged (workers
// consult it per request). On error a Source still returns its last
// good Binding so observability paths keep a pool to report on.
type Source interface {
	Binding() (Binding, error)
}

// staticSource is the Source of an index that never changes — the
// historical engine construction path.
type staticSource struct{ b Binding }

func (s staticSource) Binding() (Binding, error) { return s.b, nil }

// StaticSource wraps a fixed binding as a Source. A nil Key defaults
// to the pool pointer (any per-construction unique comparable works).
func StaticSource(b Binding) Source {
	if b.Key == nil {
		b.Key = b.Pool
	}
	return staticSource{b: b}
}

// userState is one user's session: a registry view on the shared pool
// and a (re-entrant) evaluator, bound to one Binding at a time (key
// and epoch identify it; the worker rebinds between jobs when the
// Source moves on). tail chains the user's jobs so they execute in
// submission order.
type userState struct {
	view  *buffer.UserView
	ev    *eval.Evaluator
	key   any
	epoch uint64
	tail  chan struct{}

	// Refinement-reuse state (Config.Refine): the snapshot of the
	// user's last completed evaluation and the canonical query that
	// produced it. Accessed only by the worker executing the user's
	// current job — the done-channel chain serializes a user's jobs,
	// so no lock is needed (close of the previous done channel
	// happens-before the next job runs).
	lastSnap  *eval.Snapshot
	lastQuery eval.Query
}

// Engine is the concurrent query engine. Create with New, submit with
// SubmitContext or SearchContext (from any number of goroutines), and
// Close (or Shutdown with a deadline) when done so sessions withdraw
// from the shared pool's query registry.
type Engine struct {
	src Source
	cfg Config

	queue chan *Job
	wg    sync.WaitGroup

	// stopCtx is canceled when a Shutdown deadline expires; every
	// in-flight job's context is linked to it, so expiry aborts the
	// whole fleet within one page read each.
	stopCtx    context.Context
	stopCancel context.CancelFunc
	drainOnce  sync.Once
	drained    chan struct{}

	mu     sync.Mutex
	users  map[int]*userState
	closed bool

	// refine is the bounded result cache of the refinement-reuse path;
	// nil when Config.Refine is off.
	refine *refineCache

	counters metrics.ServingCounters

	// Observability: latency distributions and live gauges. All
	// lock-free — workers record on the hot path.
	queueWait  obs.Histogram
	service    obs.Histogram
	retryWait  obs.Histogram // backoff waits of buffer load retries
	queueDepth atomic.Int64  // accepted, not yet picked up by a worker
	inFlight   atomic.Int64  // currently held by a worker
}

var _ obs.Source = (*Engine)(nil)

// New starts an engine with cfg.Workers goroutines serving queries
// against the shared pool of a fixed index generation.
func New(ix *postings.Index, conv *postings.ConversionTable, pool *buffer.SharedPool, cfg Config) (*Engine, error) {
	if ix == nil || conv == nil || pool == nil {
		return nil, errors.New("engine: nil index, conversion table or pool")
	}
	return NewWithSource(StaticSource(Binding{Ix: ix, Conv: conv, Pool: pool}), cfg)
}

// NewWithSource starts an engine whose index generation is supplied
// per request by src: a live index's Source publishes a new Binding
// per commit or merge swap, and each user session rebinds — fresh
// registry view, fresh evaluator, carried refinement snapshot dropped
// — before its next job runs. src is consulted once here so a broken
// initial binding fails construction, not the first query.
func NewWithSource(src Source, cfg Config) (*Engine, error) {
	if src == nil {
		return nil, errors.New("engine: nil source")
	}
	if b, err := src.Binding(); err != nil {
		return nil, err
	} else if b.Ix == nil || b.Conv == nil || b.Pool == nil || b.Key == nil {
		return nil, errors.New("engine: source binding missing index, conversion table, pool or key")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("engine: workers %d < 1", cfg.Workers)
	}
	if cfg.OnDeadline != AbortOnDeadline && cfg.OnDeadline != PartialOnDeadline {
		return nil, fmt.Errorf("engine: unknown deadline policy %d", int(cfg.OnDeadline))
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	depth := cfg.MaxQueue
	if depth <= 0 {
		depth = cfg.QueueDepth
		if depth <= 0 {
			depth = 4 * cfg.Workers
			if depth < 64 {
				depth = 64
			}
		}
	}
	stopCtx, stopCancel := context.WithCancel(context.Background())
	e := &Engine{
		src:        src,
		cfg:        cfg,
		queue:      make(chan *Job, depth),
		stopCtx:    stopCtx,
		stopCancel: stopCancel,
		drained:    make(chan struct{}),
		users:      make(map[int]*userState),
	}
	if cfg.Refine.enabled() {
		e.refine = newRefineCache(cfg.Refine.capacity())
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// SubmitContext enqueues a request bound to ctx and returns its Job
// handle. Canceling ctx (or its deadline, or the engine's
// QueryTimeout — whichever fires first) stops the request within one
// page read; a request canceled while still queued completes with
// context.Canceled without evaluating. With MaxQueue set, a full
// queue sheds the request: (nil, ErrQueueFull). Otherwise SubmitContext
// blocks only when the queue is full. Safe for concurrent use.
//
// Chaining and enqueueing happen atomically under e.mu, so a user's
// queue order always equals their chain order — a parked worker's
// predecessor is therefore always ahead of it in the FIFO queue,
// already held by some worker (or done). Workers never take e.mu, so
// blocking on a full queue while holding it cannot stall the drain.
// A shed request never joins the chain: us.tail advances only after
// the enqueue succeeds.
func (e *Engine) SubmitContext(ctx context.Context, user int, q eval.Query) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	us, err := e.userLocked(user)
	if err != nil {
		return nil, err
	}
	var jctx context.Context
	var cancel context.CancelFunc
	if e.cfg.QueryTimeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
	} else {
		jctx, cancel = context.WithCancel(ctx)
	}
	// A shutdown deadline aborts every in-flight request.
	stop := context.AfterFunc(e.stopCtx, cancel)
	j := &Job{
		User: user, Query: q,
		ctx:      jctx,
		cancel:   func() { stop(); cancel() },
		us:       us,
		prev:     us.tail,
		done:     make(chan struct{}),
		enqueued: time.Now(),
	}
	if e.cfg.MaxQueue > 0 {
		select {
		case e.queue <- j:
		default:
			j.cancel()
			e.counters.Shed.Add(1)
			return nil, ErrQueueFull
		}
	} else {
		e.queue <- j
	}
	e.queueDepth.Add(1)
	us.tail = j.done
	return j, nil
}

// SearchContext is SubmitContext followed by Wait.
func (e *Engine) SearchContext(ctx context.Context, user int, q eval.Query) (*eval.Result, error) {
	j, err := e.SubmitContext(ctx, user, q)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// userLocked returns (creating on first use) user's session. Caller
// holds e.mu.
func (e *Engine) userLocked(user int) (*userState, error) {
	if us, ok := e.users[user]; ok {
		return us, nil
	}
	b, err := e.src.Binding()
	if err != nil {
		return nil, err
	}
	view := b.Pool.UserView(user)
	ev, err := eval.NewEvaluator(b.Ix, view, b.Conv, e.cfg.Params)
	if err != nil {
		view.Close()
		return nil, err
	}
	us := &userState{view: view, ev: ev, key: b.Key, epoch: b.Epoch}
	e.users[user] = us
	return us, nil
}

// rebind refreshes us against the Source's current binding if it has
// moved since the user's last job: the old registry view is withdrawn,
// a fresh view and evaluator are built over the new generation's pool,
// and any carried refinement snapshot dies (it indexes the old
// generation's statistics). Called only by the worker executing the
// user's current job — the done-channel chain makes that exclusive.
func (e *Engine) rebind(us *userState, user int) error {
	b, err := e.src.Binding()
	if err != nil {
		return err
	}
	if us.key == b.Key {
		return nil
	}
	view := b.Pool.UserView(user)
	ev, err := eval.NewEvaluator(b.Ix, view, b.Conv, e.cfg.Params)
	if err != nil {
		view.Close()
		return err
	}
	us.view.Close()
	us.view, us.ev, us.key, us.epoch = view, ev, b.Key, b.Epoch
	if us.lastSnap != nil {
		us.lastSnap, us.lastQuery = nil, nil
		e.counters.RefineInvalidations.Add(1)
	}
	return nil
}

// worker drains the queue. A job whose same-user predecessor is still
// running parks until it finishes: predecessors are always earlier in
// the FIFO queue, so they are already assigned to some worker (or
// done) and progress is guaranteed — no deadlock, and per-user order
// holds for free. A canceled job still parks on its predecessor
// before completing, so a user's jobs never overlap even when some
// are withdrawn mid-stream.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.queueDepth.Add(-1)
		e.inFlight.Add(1)
		if j.prev != nil {
			<-j.prev
		}
		start := time.Now()
		j.wait = start.Sub(j.enqueued)
		e.queueWait.Observe(j.wait)
		var res *eval.Result
		err := j.ctx.Err()
		if err == nil {
			err = e.rebind(j.us, j.User)
		}
		if err == nil {
			if e.cfg.Refine.enabled() {
				res, err = e.refineEvaluate(j)
			} else {
				res, err = j.us.ev.EvaluateContext(j.ctx, e.cfg.Algo, j.Query)
			}
			if res != nil {
				// The whole evaluation ran against the binding rebind
				// installed; stamp its generation on the answer.
				res.Epoch = j.us.epoch
			}
		}
		j.service = time.Since(start)

		e.counters.Queries.Add(1)
		e.counters.ServiceNanos.Add(int64(j.service))
		e.service.Observe(j.service)
		if res != nil {
			// Charge disk and CPU costs for EVERY evaluation that ran —
			// completed, partial, timed-out or canceled — before the
			// outcome switch below may discard the result. The I/O
			// happened whether or not an answer is delivered, and
			// charging here (not on the surviving result) is what keeps
			// PagesRead equal to the buffer pool's miss count.
			e.counters.PagesRead.Add(int64(res.PagesRead))
			e.counters.PagesProcessed.Add(int64(res.PagesProcessed))
			e.counters.EntriesProcessed.Add(int64(res.EntriesProcessed))
			e.counters.Faults.Add(int64(res.Faults))
		}
		switch {
		case err == nil && res != nil && res.Degraded:
			// Ran to the end, but an I/O fault cost it at least one
			// term round (Result.Degraded): a delivered answer, yet not
			// a completed one — kept out of Completed so the completed
			// latency mean stays honest.
			e.counters.Degraded.Add(1)
		case err == nil:
			e.counters.Completed.Add(1)
			e.counters.CompletedServiceNanos.Add(int64(j.service))
		case errors.Is(err, context.DeadlineExceeded):
			e.counters.Timeouts.Add(1)
			if e.cfg.OnDeadline == PartialOnDeadline && res != nil {
				// Anytime semantics: surface the partial answer
				// (Result.Partial is set) instead of the error.
				e.counters.Partials.Add(1)
				err = nil
			} else {
				res = nil
			}
		case errors.Is(err, context.Canceled):
			// The caller withdrew; nobody wants even a partial answer —
			// but the pages it read were charged above.
			e.counters.Canceled.Add(1)
			res = nil
		default:
			e.counters.Errors.Add(1)
			res = nil
		}
		j.res, j.err = res, err
		j.cancel() // release the timeout timer and stop-link
		// Before done is signalled: a caller that reads the gauges right
		// after its last answer must see the engine idle.
		e.inFlight.Add(-1)
		close(j.done)
	}
}

// Counters returns a snapshot of the engine's atomic serving counters.
func (e *Engine) Counters() metrics.ServingSnapshot {
	return e.counters.Snapshot()
}

// RecordRetry notes one buffer-level load retry about to back off for
// wait. Wire it as the pool's RetryPolicy.OnRetry hook so the serving
// counters and the retry-wait histogram see fault-path activity that
// is otherwise invisible per query (retries happen inside the buffer,
// below per-session accounting). Lock-free; safe from any goroutine.
func (e *Engine) RecordRetry(wait time.Duration) {
	e.counters.Retries.Add(1)
	e.retryWait.Observe(wait)
}

// ObsSnapshot assembles the full observability snapshot: serving
// counters, latency histograms, engine gauges, and the buffer pool's
// live state. Lock-free on the engine side (counters and histograms
// are atomic); the buffer gauges take the pool's shard latches one at
// a time. Exact at quiescence, approximate mid-flight — both are fine
// for /metrics scrapes and experiment reports.
func (e *Engine) ObsSnapshot() obs.Snapshot {
	mgr := e.currentPool().Manager()
	st := mgr.Stats()
	return obs.Snapshot{
		Serving: e.counters.Snapshot(),
		Engine: obs.EngineGauges{
			Workers:    e.cfg.Workers,
			QueueDepth: e.queueDepth.Load(),
			InFlight:   e.inFlight.Load(),
		},
		QueueWait: e.queueWait.Snapshot(),
		Service:   e.service.Snapshot(),
		RetryWait: e.retryWait.Snapshot(),
		Buffer: obs.BufferSnapshot{
			Policy:         mgr.Policy(),
			Capacity:       mgr.Capacity(),
			InUse:          mgr.InUse(),
			Pinned:         mgr.PinnedFrames(),
			Hits:           st.Hits,
			Misses:         st.Misses,
			Evictions:      st.Evictions,
			ShardOccupancy: mgr.ShardOccupancy(),
			Adaptive:       adaptiveGauges(mgr),
		},
	}
}

// adaptiveGauges converts the pool's PolicyStats — present only when
// the replacement policy reports them (ADAPTIVE) — into the snapshot's
// optional gauge block.
func adaptiveGauges(mgr *buffer.Manager) *obs.AdaptivePolicyGauges {
	ps, ok := mgr.PolicyStats()
	if !ok {
		return nil
	}
	return &obs.AdaptivePolicyGauges{
		GhostHitsLRU: ps.GhostHitsLRU,
		GhostHitsRAP: ps.GhostHitsRAP,
		WeightLRU:    ps.WeightLRU,
		WeightRAP:    1 - ps.WeightLRU,
		Switches:     ps.Switches,
	}
}

// currentPool returns the Source's current pool (falling back to the
// last good binding on Source error, per the Source contract).
func (e *Engine) currentPool() *buffer.SharedPool {
	b, _ := e.src.Binding()
	return b.Pool
}

// BufferStats returns the current generation's shared-pool counters.
func (e *Engine) BufferStats() buffer.Stats { return e.currentPool().Manager().Stats() }

// Pool returns the shared pool the engine currently serves from (the
// current generation's; a live swap replaces it).
func (e *Engine) Pool() *buffer.SharedPool { return e.currentPool() }

// Close drains the queue, stops the workers, and withdraws every
// session from the shared registry, waiting as long as that takes.
// Submitting after Close fails with ErrEngineClosed; Close is
// idempotent.
func (e *Engine) Close() { _ = e.Shutdown(context.Background()) }

// Shutdown is graceful drain with a deadline: it stops admission
// (concurrent Submits fail with ErrEngineClosed), waits for queued
// and in-flight requests to finish, then withdraws every session from
// the shared registry. If ctx expires first, Shutdown cancels every
// remaining request — each stops within one page read and completes
// with context.Canceled (or a partial answer, per OnDeadline when its
// own deadline raced) — still waits for the workers to exit and the
// registry to empty, and returns ctx.Err(). A nil return means every
// accepted request ran to completion. Safe to call concurrently and
// repeatedly; all callers observe the same drain.
func (e *Engine) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		// Submitters hold e.mu across their send, so nobody can be
		// sending on e.queue here.
		close(e.queue)
	}
	e.mu.Unlock()

	e.drainOnce.Do(func() {
		go func() {
			e.wg.Wait()
			e.mu.Lock()
			for _, us := range e.users {
				us.view.Close()
			}
			e.mu.Unlock()
			close(e.drained)
		}()
	})

	select {
	case <-e.drained:
		return nil
	case <-ctx.Done():
		e.stopCancel()
		<-e.drained
		return ctx.Err()
	}
}
