package buffer

import "fmt"

// PolicyNames lists every built-in replacement policy, in the family's
// presentation order. Each name is accepted by PolicyFactory and — via
// the public bufir.Policy constants — by every construction surface
// (Session, Engine, Router, Open).
var PolicyNames = []string{"LRU", "MRU", "RAP", "LRU-2", "2Q", "ADAPTIVE"}

// PolicyFactory maps a policy name to a constructor of fresh policy
// instances. The constructor takes the capacity (in pages) of the pool
// — or, for sharded pools, of the one shard — the instance will
// manage: 2Q sizes its probation and ghost queues from it, ADAPTIVE
// its ghost list; the classical policies ignore it. This is the single
// name-to-policy mapping in the tree; the public API and the
// experiment harness both resolve through it, so the two paths cannot
// drift.
func PolicyFactory(name string) (func(capacity int) Policy, error) {
	switch name {
	case "LRU":
		return func(int) Policy { return NewLRU() }, nil
	case "MRU":
		return func(int) Policy { return NewMRU() }, nil
	case "RAP":
		return func(int) Policy { return NewRAP() }, nil
	case "LRU-2":
		return func(int) Policy { return NewLRUK(2) }, nil
	case "2Q":
		return func(capacity int) Policy { return NewTwoQ(capacity) }, nil
	case "ADAPTIVE":
		return func(capacity int) Policy { return NewAdaptive(capacity) }, nil
	default:
		return nil, fmt.Errorf("buffer: unknown policy %q", name)
	}
}
