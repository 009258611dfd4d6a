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
	// MaxQueue, when > 0, switches admission to fail-fast: the queue
	// holds at most MaxQueue requests and SubmitContext returns ErrQueueFull
	// instead of blocking when it is at capacity. Otherwise the queue
	// holds 4×Workers requests (at least 64) and SubmitContext blocks
	// when it is full.
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
	service time.Duration
}

// Wait blocks until the job has executed and returns its result.
func (j *Job) Wait() (*eval.Result, error) {
	<-j.done
	return j.res, j.err
}

// Service returns the job's service time (dequeue to completion),
// valid after Wait returns.
func (j *Job) Service() time.Duration { return j.service }

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

// userState is one user's session: the User that binds and evaluates
// their requests, and tail, which chains the user's jobs so they
// execute in submission order.
type userState struct {
	user *User
	tail chan struct{}
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

	counters metrics.ServingCounters

	// Observability: latency distributions and live gauges. All
	// lock-free — workers record on the hot path.
	queueWait  metrics.Histogram
	service    metrics.Histogram
	retryWait  metrics.Histogram // backoff waits of buffer load retries
	queueDepth atomic.Int64      // accepted, not yet picked up by a worker
	inFlight   atomic.Int64      // currently held by a worker
}

var _ metrics.Source = (*Engine)(nil)

// New starts an engine with cfg.Workers goroutines whose index
// generation is supplied per request by src: a live index's Source
// publishes a new Binding per commit or merge swap, and each user
// session rebinds — fresh registry view, fresh evaluator — before its
// next job runs. src is consulted once here so a broken initial
// binding fails construction, not the first query.
func New(src Source, cfg Config) (*Engine, error) {
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
		depth = max(4*cfg.Workers, 64)
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
	u, err := NewUser(e.src, user, e.cfg.Params)
	if err != nil {
		return nil, err
	}
	us := &userState{user: u}
	e.users[user] = us
	return us, nil
}

// worker drains the queue. A job whose same-user predecessor is still
// running parks until it finishes: predecessors are always earlier in
// the FIFO queue, so they are already assigned to some worker (or
// done) and progress is guaranteed — no deadlock, and per-user order
// holds for free. A canceled job still parks on its predecessor
// before completing, so a user's jobs never overlap even when some
// are withdrawn mid-stream. The user's job chain is also what makes
// Step's exclusive access to the User safe.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.queueDepth.Add(-1)
		e.inFlight.Add(1)
		if j.prev != nil {
			<-j.prev
		}
		start := time.Now()
		e.queueWait.Observe(start.Sub(j.enqueued))
		var res *eval.Result
		err := j.ctx.Err()
		if err == nil {
			res, err = j.us.user.Step(j.ctx, e.cfg.Algo, j.Query)
		}
		j.service = time.Since(start)
		e.service.Observe(j.service)
		j.res, j.err = Classify(&e.counters, res, err, j.service, e.cfg.OnDeadline)
		j.cancel() // release the timeout timer and stop-link
		// Before done is signalled: a caller that reads the gauges right
		// after its last answer must see the engine idle.
		e.inFlight.Add(-1)
		close(j.done)
	}
}

// Classify files one executed request in c — Queries, its service
// time, the cost counters of whatever ran, and exactly one outcome
// bucket (Completed, Timeouts, Canceled, Errors or Degraded) — and
// returns what the caller delivers. Costs are charged for every
// evaluation that ran, even one whose answer is discarded: the I/O
// happened, and charging it is what keeps PagesRead equal to the
// buffer pool's miss count.
//
// A deadline hit counts as a timeout. Under PartialOnDeadline its
// anytime answer is delivered in place of the error and counted in
// Partials; an answer already delivered that way (Partial set, nil
// error) is filed the same, so a Router over engines counts exactly
// what they count. Otherwise a failed request delivers only its error.
// Every serving surface — the Engine's workers and the Router — counts
// through here.
func Classify(c *metrics.ServingCounters, res *eval.Result, err error, service time.Duration, onDeadline DeadlinePolicy) (*eval.Result, error) {
	c.Queries.Add(1)
	c.ServiceNanos.Add(int64(service))
	if res != nil {
		c.PagesRead.Add(int64(res.PagesRead))
		c.PagesProcessed.Add(int64(res.PagesProcessed))
		c.EntriesProcessed.Add(int64(res.EntriesProcessed))
		c.Faults.Add(int64(res.Faults))
	}
	switch {
	case err == nil && res != nil && res.Partial:
		c.Timeouts.Add(1)
		c.Partials.Add(1)
	case err == nil && res != nil && res.Degraded:
		// Ran to the end, but an I/O fault cost it at least one term
		// round (Result.Degraded): a delivered answer, yet not a
		// completed one — kept out of Completed so the completed latency
		// mean stays honest.
		c.Degraded.Add(1)
	case err == nil:
		c.Completed.Add(1)
		c.CompletedServiceNanos.Add(int64(service))
	case errors.Is(err, context.DeadlineExceeded):
		c.Timeouts.Add(1)
		if onDeadline == PartialOnDeadline && res != nil {
			c.Partials.Add(1)
			return res, nil
		}
		return nil, err
	case errors.Is(err, context.Canceled):
		// The caller withdrew; nobody wants even a partial answer.
		c.Canceled.Add(1)
		return nil, err
	default:
		c.Errors.Add(1)
		return nil, err
	}
	return res, nil
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
func (e *Engine) ObsSnapshot() metrics.Snapshot {
	mgr := e.currentPool().Manager()
	st := mgr.Stats()
	return metrics.Snapshot{
		Serving: e.counters.Snapshot(),
		Engine: metrics.EngineGauges{
			Workers:    e.cfg.Workers,
			QueueDepth: e.queueDepth.Load(),
			InFlight:   e.inFlight.Load(),
		},
		QueueWait: e.queueWait.Snapshot(),
		Service:   e.service.Snapshot(),
		RetryWait: e.retryWait.Snapshot(),
		Buffer: metrics.BufferSnapshot{
			Policy:         mgr.Policy(),
			Capacity:       mgr.Capacity(),
			InUse:          mgr.InUse(),
			Pinned:         mgr.PinnedFrames(),
			Hits:           st.Hits,
			Misses:         st.Misses,
			Evictions:      st.Evictions,
			ShardOccupancy: mgr.ShardOccupancy(),
		},
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
				us.user.Close()
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
