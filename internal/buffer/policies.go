package buffer

import "fmt"

// PolicyNames lists the product's replacement policies — the paper's
// three (§3.3) — in presentation order. Each name is accepted by
// PolicyFactory and — via the public bufir.Policy constants — by every
// construction surface (Session, Engine, Router, Open). The extension
// policies (LRU-K, 2Q, ADAPTIVE) are not registered here: they are
// experiment apparatus, built through NewManager's constructor
// argument.
var PolicyNames = []string{"LRU", "MRU", "RAP"}

// PolicyFactory maps a policy name to a constructor of fresh policy
// instances. The constructor takes the capacity (in pages) of the pool
// — or, for sharded pools, of the one shard — the instance will
// manage; the paper's policies ignore it. This is the single product
// name-to-policy mapping; the public API and the experiment harness
// both resolve through it, so the two paths cannot drift.
func PolicyFactory(name string) (func(capacity int) Policy, error) {
	switch name {
	case "LRU":
		return func(int) Policy { return NewLRU() }, nil
	case "MRU":
		return func(int) Policy { return NewMRU() }, nil
	case "RAP":
		return func(int) Policy { return NewRAP() }, nil
	default:
		return nil, fmt.Errorf("buffer: unknown policy %q", name)
	}
}
