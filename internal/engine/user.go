package engine

import (
	"context"

	"bufir/internal/buffer"
	"bufir/internal/eval"
)

// User is one user's serving state over a Source: a registry view on
// the bound generation's shared pool, a (re-entrant) evaluator over it,
// and the binding that identifies the generation. Step is the one
// place a request is bound, evaluated and stamped: the engine's worker
// calls it for every job, and a bufir.Session is a single User stepped
// inline. A User is not safe for concurrent use; its caller serializes
// the steps (the engine through the user's job chain).
type User struct {
	id     int
	src    Source
	params eval.Params

	// The current binding; b.Key identifies it and b.Epoch is what
	// results are stamped with.
	b    Binding
	view *buffer.UserView
	ev   *eval.Evaluator
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
// built over the new generation's pool.
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
// current binding, evaluates q over that generation's shared pool and
// stamps the result with the binding's epoch.
func (u *User) Step(ctx context.Context, algo eval.Algorithm, q eval.Query) (*eval.Result, error) {
	if err := u.rebind(); err != nil {
		return nil, err
	}
	res, err := u.ev.EvaluateContext(ctx, algo, q)
	if res != nil {
		res.Epoch = u.b.Epoch
	}
	return res, err
}

// Epoch returns the generation the user is bound to.
func (u *User) Epoch() uint64 { return u.b.Epoch }

// Pool returns the shared pool of the user's current binding.
func (u *User) Pool() *buffer.SharedPool { return u.b.Pool }

// Close withdraws the user's query from the bound pool's registry.
func (u *User) Close() { u.view.Close() }
