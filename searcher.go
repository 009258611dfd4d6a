package bufir

import (
	"context"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/eval"
)

// Searcher is the backend-neutral serving contract implemented by
// every way of answering queries concurrently: the worker-pool Engine,
// the scatter-gather Router over document partitions, and the Service
// that wraps one or the other. Code that serves queries — cmd
// binaries, the HTTP tier, experiments — programs against Searcher and
// runs unchanged over a single engine or a sharded deployment.
//
// The contract, shared by all implementations:
//
//   - SearchContext executes one request for the user under ctx.
//     Canceling ctx (or an expiring deadline) stops the request within
//     one page read; the anytime partial answer may be returned
//     alongside the context's error, or in place of it, per the
//     implementation's deadline policy. Whether a user's
//     resubmissions reuse earlier work is the engine's configuration
//     (EngineConfig.Refine), not a separate method: a Router fans every
//     user's stream out to the same shard engines.
//   - Stats returns the implementation's serving counters. At
//     quiescence every executed request lands in exactly one outcome
//     bucket: Queries == Completed + Timeouts + Canceled + Errors +
//     Degraded (Shed is disjoint; Partials ⊆ Timeouts).
//   - Close releases the searcher's resources (worker pools, registry
//     entries, listeners). Idempotent.
type Searcher interface {
	SearchContext(ctx context.Context, user int, q Query) (*Result, error)
	Stats() EngineStats
	Close() error
}

// Compile-time conformance: the serving surfaces stay on the shared
// contract.
var (
	_ Searcher = (*Engine)(nil)
	_ Searcher = (*Router)(nil)
	_ Searcher = (*Service)(nil)
)

// resolvedConfig is the output of resolveConfig: every defaulted knob
// a construction path needs to build its pool and evaluator.
type resolvedConfig struct {
	params      eval.Params
	bufferPages int
	// newPolicy constructs a fresh policy instance for a pool shard of
	// the given page capacity — 2Q and ADAPTIVE size their
	// probation/ghost structures from it; the buffer manager calls it
	// once per latch shard with that shard's slice of bufferPages.
	newPolicy func(capacity int) buffer.Policy
}

// resolveConfig is the single defaulting path for the construction
// knobs shared by Sessions and Engines: buffer capacity (default 128
// pages), replacement policy (defaultPolicy when unset — LRU for
// private sessions, RAP for the Engine's shared pool), and the
// evaluation parameters via EvalOptions.params with the caller's
// filtering-constant fallback. Every public constructor routes through
// here, so policy resolution and parameter validation exist in exactly
// one place.
func resolveConfig(o EvalOptions, policy Policy, bufferPages int, defaultPolicy Policy, fallback eval.Params) (resolvedConfig, error) {
	if bufferPages == 0 {
		bufferPages = 128
	}
	if policy == "" {
		policy = defaultPolicy
	}
	newPolicy, err := policyFactory(policy)
	if err != nil {
		return resolvedConfig{}, err
	}
	params, err := o.params(fallback)
	if err != nil {
		return resolvedConfig{}, err
	}
	return resolvedConfig{params: params, bufferPages: bufferPages, newPolicy: newPolicy}, nil
}

// applyFaultOptions wires FaultToleranceOptions onto a buffer manager.
// The zero options install nothing, keeping the historical fail-fast
// semantics at zero cost. onRetry, when non-nil, observes each retry's
// backoff wait (the Engine feeds its serving counters through it).
// This is the single place fault wiring happens for every
// construction path.
func applyFaultOptions(mgr *buffer.Manager, ft FaultToleranceOptions, onRetry func(wait time.Duration)) {
	if ft == (FaultToleranceOptions{}) {
		return
	}
	mgr.SetRetryPolicy(buffer.RetryPolicy{
		MaxRetries: ft.Retries,
		Backoff:    ft.RetryBackoff,
		BackoffMax: ft.RetryBackoffMax,
		VictimWait: ft.VictimWait,
		OnRetry:    onRetry,
	})
}
