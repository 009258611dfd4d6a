package buffer

// Fault tolerance of the load path. The paper treats every disk read
// as infallible; a serving stack cannot. Two knobs, both off by
// default so the fault path costs nothing when unused (the serial
// experiments stay bit-for-bit reproducible):
//
//   - Transient load errors are retried with bounded exponential
//     backoff INSIDE the single-flight loader: one retrier per page,
//     waiters stay parked on the shard's broadcast channel, and the page
//     still costs one successful read no matter how many attempts or
//     sessions it took.
//   - A pool whose every frame is pinned waits a bounded time for a
//     pin to drop instead of failing fast with ErrNoVictim — momentary
//     full-pin is backpressure, not an error.

import (
	"context"
	"errors"
	"time"

	"bufir/internal/postings"
)

// RetryPolicy configures the fault-tolerant load path of a pool. The
// zero value disables everything: loads fail on the first error and a
// fully-pinned pool returns ErrNoVictim immediately, exactly the
// pre-fault-tolerance semantics.
type RetryPolicy struct {
	// MaxRetries is how many times a failed load is re-attempted by
	// the loading session before the error is surfaced (0 = no
	// retries). Context errors and errors marked permanent (a
	// PermanentFault() bool method returning true, e.g. storage's
	// permanent injected faults) are never retried; everything else is
	// presumed transient.
	MaxRetries int
	// Backoff is the wait before the first retry; it doubles per
	// attempt up to BackoffMax. Defaults to 500µs when MaxRetries > 0.
	Backoff time.Duration
	// BackoffMax caps the exponential growth (default 100×Backoff).
	BackoffMax time.Duration
	// VictimWait bounds how long a fetch waits for an evictable frame
	// when capacity is exhausted and every frame is pinned, before
	// giving up with ErrNoVictim (0 = fail fast).
	VictimWait time.Duration
	// OnRetry, when non-nil, is called once per retry with the backoff
	// wait about to be applied — the serving layer hooks this to count
	// retries and feed the retry-latency histogram. Must be safe for
	// concurrent use and must not block.
	OnRetry func(wait time.Duration)
}

// wait returns the backoff before retry attempt (1-based), applying
// the defaulting rules.
func (rp RetryPolicy) wait(attempt int) time.Duration {
	base := rp.Backoff
	if base <= 0 {
		base = 500 * time.Microsecond
	}
	max := rp.BackoffMax
	if max <= 0 {
		max = 100 * base
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	return d
}

// permanentFault is the marker interface of errors that retries cannot
// outlive. Declared here (not imported from storage) so the buffer
// stays decoupled from the concrete store; storage.FaultError
// implements it.
type permanentFault interface{ PermanentFault() bool }

// retryableLoadError reports whether a failed load is worth retrying:
// not a context error (the requester is gone), not marked permanent.
// Unknown errors ARE retried — a production pool cannot assume an
// unclassified I/O error is fatal.
func retryableLoadError(err error) bool {
	if err == nil || errIsContextual(err) {
		return false
	}
	var pf permanentFault
	if errors.As(err, &pf) && pf.PermanentFault() {
		return false
	}
	return true
}

// sleepCtx waits d or until ctx dies, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if done := ctx.Done(); done != nil {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
			return nil
		case <-done:
			timer.Stop()
			return ctx.Err()
		}
	}
	time.Sleep(d)
	return nil
}

// loadWithRetry reads a page, re-attempting transient failures with
// exponential backoff per rp: one read when rp is zero or the first
// read succeeds, and the page costs one *successful* read no matter
// how many attempts preceded it — failed reads are uncounted by the
// store, keeping "pool misses == successful store reads" true under
// chaos. A context death during backoff surfaces as the context
// error, so the caller's miss-undo path treats an abandoned retry
// exactly like an abandoned first read.
func loadWithRetry(ctx context.Context, store PageReader, rp RetryPolicy, id postings.PageID) ([]postings.Entry, error) {
	data, err := store.ReadContext(ctx, id)
	for attempt := 1; err != nil && attempt <= rp.MaxRetries && retryableLoadError(err); attempt++ {
		wait := rp.wait(attempt)
		if rp.OnRetry != nil {
			rp.OnRetry(wait)
		}
		if serr := sleepCtx(ctx, wait); serr != nil {
			err = serr
			break
		}
		data, err = store.ReadContext(ctx, id)
	}
	return data, err
}

// waiterLoadError wraps the load error a single-flight WAITER observed
// — i.e. the loader was another session. FetchContext unwraps it and
// re-attempts the fetch under the waiter's own (still live) context,
// mirroring the canceled-loader rule: one session's I/O failure must
// not become an innocent waiter's query error when a retry under the
// waiter's own control could still succeed.
type waiterLoadError struct{ err error }

func (e *waiterLoadError) Error() string { return e.err.Error() }
func (e *waiterLoadError) Unwrap() error { return e.err }
