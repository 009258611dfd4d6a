package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"bufir"
	"bufir/internal/eval"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// The serving experiments (E21 concurrency, lifecycle, E22 obs, E23
// faults, E25 shards) measure the shipped assembly:
// each builds a bufir.Index over the collection and serves it through
// Index.NewEngine (and, for E25, NewRouter), exactly as a user would.
// They share one workload, one driver and one exactness check, below.
// ---------------------------------------------------------------------------

// userStream builds the multi-user workload of E12 and every serving
// experiment: users round-robin over topics [0 1 0 1] (users 0/2 and
// 1/3 share a topic, so cross-user locality exists), each walking its
// topic's ADD-ONLY refinement sequence. ws is the working set, the
// list pages of topics 0 and 1 together; pool sizes scale against it.
func (e *Env) userStream(users int) (seqs []*refine.Sequence, ws int, err error) {
	seqs = make([]*refine.Sequence, users)
	for u := range seqs {
		if seqs[u], err = e.Sequence(u%2, refine.AddOnly); err != nil {
			return nil, 0, err
		}
	}
	for ti := 0; ti < 2; ti++ {
		seq, err := e.Sequence(ti, refine.AddOnly)
		if err != nil {
			return nil, 0, err
		}
		ws += e.WorkingSetPages(seq)
	}
	return seqs, ws, nil
}

// eachRound walks the stream in E12's interleave: round j offers
// refinement j of every user in turn (users resubmit at roughly the
// same cadence). endRound, when non-nil, runs after every round.
func eachRound(seqs []*refine.Sequence, step func(u, j int, q eval.Query) error, endRound func() error) error {
	for j := 0; ; j++ {
		offered := false
		for u, s := range seqs {
			if j >= len(s.Refinements) {
				continue
			}
			offered = true
			if err := step(u, j, s.Refinements[j]); err != nil {
				return err
			}
		}
		if !offered {
			return nil
		}
		if endRound != nil {
			if err := endRound(); err != nil {
				return err
			}
		}
	}
}

// serveRounds drives the stream through eng round by round: it submits
// refinement j of every user, then waits for the round's answers before
// round j+1 — a user refines after seeing the previous answer, so each
// round is a burst against the admission queue. A request shed at
// admission is skipped; the user's next round proceeds. report sees
// every admitted request's outcome in submission order, and an error
// it returns stops the run. serveRounds returns the
// number of requests offered.
func serveRounds(eng *bufir.Engine, seqs []*refine.Sequence, report func(u, j int, res *bufir.Result, err error, service time.Duration) error) (int, error) {
	type pending struct {
		u, j int
		t    *bufir.Ticket
	}
	var round []pending
	offered := 0
	err := eachRound(seqs, func(u, j int, q eval.Query) error {
		offered++
		t, err := eng.SubmitContext(context.Background(), u, q)
		if errors.Is(err, bufir.ErrQueueFull) {
			return nil
		}
		if err != nil {
			return err
		}
		round = append(round, pending{u: u, j: j, t: t})
		return nil
	}, func() error {
		for _, p := range round {
			res, err := p.t.Wait()
			if err := report(p.u, p.j, res, err, p.t.Service()); err != nil {
				return err
			}
		}
		round = round[:0]
		return nil
	})
	return offered, err
}

// slowReads gives every page read of ix the simulated disk time d (a
// latency rule that fires on every read); d <= 0 leaves reads free.
// Call it before building an engine over ix.
func slowReads(ix *bufir.Index, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	return ix.InjectFaults("latency:spike="+d.String(), 0)
}

// failOnError is the report of a run in which every request must
// succeed.
func failOnError(_, _ int, _ *bufir.Result, err error, _ time.Duration) error { return err }

// evalOptions expresses the experiments' evaluation parameters as the
// public knobs, for algo.
func (e *Env) evalOptions(algo bufir.Algorithm) bufir.EvalOptions {
	p := e.Params()
	return bufir.EvalOptions{
		Algorithm:   algo,
		CAdd:        p.CAdd,
		CIns:        p.CIns,
		Unfiltered:  p.CAdd == 0 && p.CIns == 0,
		TopN:        p.TopN,
		FaultBudget: p.FaultBudget,
	}
}

// VerifyPoint compares total disk reads at one pool size: the serial
// E12 interleave vs. the 1-worker engine over the same stream.
type VerifyPoint struct {
	Size        int
	SerialReads int64
	EngineReads int64
}

// verifySweep is the exactness half of E21 and E22: at every pool size
// of the sweep, a 1-worker BAF/RAP Engine serving the four-user E12
// stream must read exactly as many pages as the serial E12 interleave
// on a shared RAP pool. obsAddr, when non-empty, starts each engine's
// observability endpoint there (E22 checks that observing changes
// nothing; NewEngine fails if the endpoint cannot start).
func (e *Env) verifySweep(points int, obsAddr string) ([]VerifyPoint, error) {
	seqs, ws, err := e.userStream(4)
	if err != nil {
		return nil, err
	}
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, err
	}
	var out []VerifyPoint
	for _, size := range SweepSizes(ws, points) {
		serial, err := e.runMultiUserOnce("shared/RAP", seqs, size)
		if err != nil {
			return nil, err
		}
		eng, err := ix.NewEngine(bufir.EngineConfig{
			EvalOptions: e.evalOptions(bufir.BAF),
			Workers:     1,
			BufferPages: size,
			Obs:         bufir.ObsOptions{Addr: obsAddr},
		})
		if err != nil {
			return nil, err
		}
		_, err = serveRounds(eng, seqs, failOnError)
		reads := eng.BufferStats().Misses
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		out = append(out, VerifyPoint{Size: size, SerialReads: int64(serial), EngineReads: reads})
	}
	return out, nil
}

// formatVerify prints a verification table; it reports whether every
// row matched.
func formatVerify(w io.Writer, rows []VerifyPoint) bool {
	fmt.Fprintf(w, "%8s  %12s  %12s  %s\n", "buffers", "serial", "engine(w=1)", "match")
	exact := true
	for _, v := range rows {
		match := "ok"
		if v.SerialReads != v.EngineReads {
			match = "MISMATCH"
			exact = false
		}
		fmt.Fprintf(w, "%8d  %12d  %12d  %s\n", v.Size, v.SerialReads, v.EngineReads, match)
	}
	return exact
}

// percentile reads the p-th percentile off an ascending-sorted sample
// (0 for an empty one).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)*p/100, len(sorted)-1)]
}
