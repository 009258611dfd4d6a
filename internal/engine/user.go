package engine

import (
	"context"

	"bufir/internal/buffer"
	"bufir/internal/eval"
)

// User is one user's serving state over a Source: a registry view on
// the bound generation's shared pool, a (re-entrant) evaluator over it,
// the binding that identifies the generation, and the carried
// refinement snapshot. Step is the one place a request is bound,
// evaluated and stamped: the engine's worker calls it for every job,
// and a bufir.Session is a single User stepped inline. A User is not
// safe for concurrent use; its caller serializes the steps (the engine
// through the user's job chain).
type User struct {
	id     int
	src    Source
	params eval.Params

	// The current binding; b.Key identifies it and b.Epoch is what
	// results are stamped with.
	b    Binding
	view *buffer.UserView
	ev   *eval.Evaluator

	// The carried refinement snapshot: the last resumable evaluation's
	// state, the query that produced it and the binding it read.
	snap      *eval.Snapshot
	snapQuery eval.Query
	snapKey   any

	// cache is the engine's result cache; nil outside an engine with
	// Config.Refine on.
	cache *refineCache
}

// NewUser binds user id to src's current binding, evaluating with
// params.
func NewUser(src Source, id int, params eval.Params) (*User, error) {
	u := &User{id: id, src: src, params: params}
	if err := u.rebind(); err != nil {
		return nil, err
	}
	return u, nil
}

// rebind moves u onto the Source's current binding if it has moved on:
// the old registry view is withdrawn and a fresh view and evaluator are
// built over the new generation's pool. The carried snapshot stays
// until the next resume step, which drops it as stale.
func (u *User) rebind() error {
	b, err := u.src.Binding()
	if err != nil {
		return err
	}
	if u.view != nil && b.Key == u.b.Key {
		return nil
	}
	view := b.Pool.UserView(u.id)
	ev, err := eval.NewEvaluator(b.Ix, view, b.Conv, u.params)
	if err != nil {
		view.Close()
		return err
	}
	if u.view != nil {
		u.view.Close()
	}
	u.b, u.view, u.ev = b, view, ev
	return nil
}

// Step runs one request for the user: it rebinds to the Source's
// current binding, evaluates q and stamps the result with the
// binding's epoch. Without resume the evaluation is cold. With resume
// it continues from the carried snapshot when q is an ADD-ONLY step of
// the query that produced it on this binding, and otherwise drops the
// snapshot, which invalidated reports. A successful resume step
// carries its own snapshot forward (DF only); a failed one, a context
// error with its anytime answer included, leaves the carried state as
// it was.
//
// Inside an engine with a result cache, a resume step looks q up
// first: a hit returns the cached ranking with zero cost counters and
// restores the snapshot it was computed with.
func (u *User) Step(ctx context.Context, algo eval.Algorithm, q eval.Query, resume bool) (res *eval.Result, invalidated bool, err error) {
	if err := u.rebind(); err != nil {
		return nil, false, err
	}
	if resume {
		res, invalidated, err = u.resume(ctx, algo, q)
	} else {
		res, err = u.ev.EvaluateContext(ctx, algo, q)
	}
	if res != nil {
		res.Epoch = u.b.Epoch
	}
	return res, invalidated, err
}

// resume is Step's resume path on the current binding.
func (u *User) resume(ctx context.Context, algo eval.Algorithm, q eval.Query) (*eval.Result, bool, error) {
	// A snapshot of another generation's statistics never seeds this one.
	stale := u.snap != nil && u.snapKey != u.b.Key
	k := refineKey{user: u.id, epoch: u.b.Epoch, query: eval.CanonicalEncoding(q)}
	if ent, ok := u.cache.get(k); ok {
		if ent.snap != nil {
			u.carry(ent.snap, q)
		} else if stale {
			u.snap = nil
		}
		return cachedCopy(ent.res), stale, nil
	}
	prev := u.snap
	invalidated := stale || (prev != nil && !eval.AddOnlyStep(u.snapQuery, q))
	if invalidated {
		prev = nil
	}
	res, snap, err := u.ev.EvaluateResumeContext(ctx, algo, q, prev)
	if err != nil {
		return res, false, err
	}
	if snap != nil {
		u.carry(snap, q)
	} else if invalidated {
		u.snap = nil
	}
	// Only clean completed evaluations are cached: a degraded result
	// must not be replayed to a later submitter whose run could have
	// been fault-free.
	if !res.Degraded {
		u.cache.put(k, res, snap)
	}
	return res, invalidated, nil
}

// carry makes snap, produced by q on the current binding, the resume
// point of the next step.
func (u *User) carry(snap *eval.Snapshot, q eval.Query) {
	u.snap, u.snapQuery, u.snapKey = snap, q, u.b.Key
}

// Epoch returns the generation the user is bound to.
func (u *User) Epoch() uint64 { return u.b.Epoch }

// Pool returns the shared pool of the user's current binding.
func (u *User) Pool() *buffer.SharedPool { return u.b.Pool }

// Close withdraws the user's query from the bound pool's registry.
func (u *User) Close() { u.view.Close() }
