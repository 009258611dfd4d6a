package experiments

import (
	"fmt"
	"io"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// E12 (extension) — §3.3's future-work question: how should RAP extend
// to multi-user workloads? The paper sketches two options: (a)
// allocate separate buffer slots per query and run RAP within each,
// and (b) maintain a global query registry and manage the pool as a
// single unit (using the highest w_{q,t} for terms shared by queries).
// This experiment implements both and compares them against a shared
// LRU pool, under K users running interleaved refinement sequences
// with overlapping topics.
// ---------------------------------------------------------------------------

// MultiUserResult holds the comparison series.
type MultiUserResult struct {
	Users  int
	Topics []int // topic index per user (with deliberate overlap)
	Sizes  []int // total buffer pages (shared across all users)
	// Series[config][i] is total disk reads at Sizes[i]; configs are
	// "segmented/RAP", "shared/RAP", "shared/LRU".
	Series map[string][]int
}

// MultiUserConfigs lists the compared configurations.
var MultiUserConfigs = []string{"segmented/RAP", "shared/RAP", "shared/LRU"}

// RunMultiUser interleaves the ADD-ONLY sequences of K=4 users (two
// pairs sharing a topic, so cross-user locality exists) and measures
// total disk reads under each buffering configuration across a sweep
// of total pool sizes.
func (e *Env) RunMultiUser(points int) (*MultiUserResult, error) {
	userTopics := []int{0, 1, 0, 1} // users 0/2 and 1/3 share topics
	const K = 4

	// Build each user's refinement sequence once.
	seqs := make([]*refine.Sequence, K)
	ws := 0
	for u, ti := range userTopics {
		seq, err := e.Sequence(ti, refine.AddOnly)
		if err != nil {
			return nil, err
		}
		seqs[u] = seq
	}
	// Working set: union over distinct topics (0 and 1).
	for _, ti := range []int{0, 1} {
		seq, err := e.Sequence(ti, refine.AddOnly)
		if err != nil {
			return nil, err
		}
		ws += e.WorkingSetPages(seq)
	}

	out := &MultiUserResult{
		Users:  K,
		Topics: userTopics,
		Sizes:  SweepSizes(ws, points),
		Series: make(map[string][]int, len(MultiUserConfigs)),
	}
	for _, cfg := range MultiUserConfigs {
		series := make([]int, 0, len(out.Sizes))
		for _, size := range out.Sizes {
			reads, err := e.runMultiUserOnce(cfg, seqs, size)
			if err != nil {
				return nil, err
			}
			series = append(series, reads)
		}
		out.Series[cfg] = series
	}
	return out, nil
}

// runMultiUserOnce executes one configuration at one total pool size
// and returns the total disk reads.
func (e *Env) runMultiUserOnce(cfg string, seqs []*refine.Sequence, totalPages int) (int, error) {
	k := len(seqs)
	evs := make([]*eval.Evaluator, k)
	var stats func() int64

	switch cfg {
	case "segmented/RAP":
		// Option (a): private pools of totalPages/K, RAP each.
		per := totalPages / k
		if per < 1 {
			per = 1
		}
		mgrs := make([]*buffer.Manager, k)
		for u := range seqs {
			mgr, err := serialPool(per, e.Store, e.Idx, buffer.NewRAP())
			if err != nil {
				return 0, err
			}
			mgrs[u] = mgr
			ev, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, e.Params())
			if err != nil {
				return 0, err
			}
			evs[u] = ev
		}
		stats = func() int64 {
			var total int64
			for _, m := range mgrs {
				total += m.Stats().Misses
			}
			return total
		}
	case "shared/RAP", "shared/LRU":
		// Option (b): one pool, per-user query views; RAP sees the
		// maximum w_{q,t} across all active queries.
		var pol buffer.Policy = buffer.NewRAP()
		if cfg == "shared/LRU" {
			pol = buffer.NewLRU()
		}
		pool, err := buffer.NewShardedSharedPool(totalPages, 1, e.Store, e.Idx,
			func(int) buffer.Policy { return pol })
		if err != nil {
			return 0, err
		}
		for u := range seqs {
			ev, err := eval.NewEvaluator(e.Idx, pool.UserView(u), e.Conv, e.Params())
			if err != nil {
				return 0, err
			}
			evs[u] = ev
		}
		stats = func() int64 { return pool.Manager().Stats().Misses }
	default:
		return 0, fmt.Errorf("experiments: unknown multi-user config %q", cfg)
	}

	// Interleave: round j runs refinement j of every user in turn
	// (users resubmit at roughly the same cadence).
	maxRef := 0
	for _, s := range seqs {
		if len(s.Refinements) > maxRef {
			maxRef = len(s.Refinements)
		}
	}
	for j := 0; j < maxRef; j++ {
		for u, s := range seqs {
			if j >= len(s.Refinements) {
				continue
			}
			algo := eval.BAF
			if _, err := evs[u].Evaluate(algo, s.Refinements[j]); err != nil {
				return 0, err
			}
		}
	}
	return int(stats()), nil
}

// Format prints the comparison table.
func (r *MultiUserResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Multi-user extension (§3.3): %d users on topics %v, BAF, total disk reads\n",
		r.Users, r.Topics)
	fmt.Fprintf(w, "%8s", "buffers")
	for _, cfg := range MultiUserConfigs {
		fmt.Fprintf(w, "  %13s", cfg)
	}
	fmt.Fprintln(w)
	for i, size := range r.Sizes {
		fmt.Fprintf(w, "%8d", size)
		for _, cfg := range MultiUserConfigs {
			fmt.Fprintf(w, "  %13d", r.Series[cfg][i])
		}
		fmt.Fprintln(w)
	}
}
