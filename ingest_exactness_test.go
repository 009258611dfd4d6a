package bufir

// The metamorphic ingestion-exactness harness (`make ingest-exactness`
// runs it under -race): random interleavings of Add / Search / Refine
// / Merge / cancellation, across every evaluation method, a policy
// rotation, and a transient fault schedule, where after EVERY search
// the live index's answer is compared bit-for-bit — DocIDs, TermIDs,
// float64 scores, tie order — against an oracle index rebuilt from
// scratch over the current corpus with postings.Build in live
// vocabulary order (main-generation order, then each added document's
// new terms lexicographically). Ingestion is exact or it is broken;
// there is no tolerance band.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

const exactPageSize = 8 // small pages force multi-page lists

// exactCorpus tracks the logical corpus and the live vocabulary order
// the delta index is specified to produce, so the oracle build assigns
// identical TermIDs.
type exactCorpus struct {
	docs  []map[string]int
	names []string
	vocab []string
	seen  map[string]bool
}

func newExactCorpus() *exactCorpus {
	return &exactCorpus{seen: map[string]bool{}}
}

func (c *exactCorpus) add(name string, counts map[string]int) {
	c.docs = append(c.docs, counts)
	c.names = append(c.names, name)
	var fresh []string
	for t := range counts {
		if !c.seen[t] {
			c.seen[t] = true
			fresh = append(fresh, t)
		}
	}
	sort.Strings(fresh)
	c.vocab = append(c.vocab, fresh...)
}

// build runs postings.Build over the corpus in live vocabulary order
// and wraps it as a static in-memory Index — the from-scratch oracle.
func (c *exactCorpus) build(t *testing.T) *Index {
	t.Helper()
	byTerm := map[string][]postings.Entry{}
	for d, counts := range c.docs {
		for term, f := range counts {
			byTerm[term] = append(byTerm[term], postings.Entry{Doc: postings.DocID(d), Freq: int32(f)})
		}
	}
	lists := make([]postings.TermPostings, 0, len(c.vocab))
	for _, term := range c.vocab {
		lists = append(lists, postings.TermPostings{Name: term, Entries: byTerm[term]})
	}
	pix, pages, err := postings.Build(lists, len(c.docs), exactPageSize)
	if err != nil {
		t.Fatalf("oracle Build: %v", err)
	}
	names := append([]string(nil), c.names...)
	return newStaticIndex(pix, storage.NewStore(pages), pages, names)
}

// exactTerm spells vocabulary slot i alphabetically.
func exactTerm(i int) string {
	return string([]byte{'m', byte('a' + i/26%26), byte('a' + i%26)})
}

// randomDoc draws a document: a handful of pooled terms with skewed
// counts, occasionally introducing a brand-new term.
func randomDoc(rng *rand.Rand, serial int) (string, map[string]int) {
	counts := map[string]int{}
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(40), rng.Intn(40)
		if b < a {
			a = b
		}
		counts[exactTerm(a)] = 1 + rng.Intn(4)
	}
	if rng.Intn(4) == 0 {
		counts[fmt.Sprintf("zq%c%c", 'a'+serial/26%26, 'a'+serial%26)] = 1 + rng.Intn(3)
	}
	return fmt.Sprintf("live%04d", serial), counts
}

// randomQuery draws 1-4 terms from the seen vocabulary.
func randomQuery(rng *rand.Rand, c *exactCorpus) map[string]int {
	q := map[string]int{}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		q[c.vocab[rng.Intn(len(c.vocab))]] = 1 + rng.Intn(3)
	}
	return q
}

// mkQuery resolves a by-name query against one index. Every queried
// term is in the corpus, so lookups must succeed — and the live and
// oracle indexes must agree on the TermID (vocabulary-order identity,
// the precondition for everything downstream being bit-identical).
func mkQuery(t *testing.T, ix *Index, terms map[string]int) Query {
	t.Helper()
	var q Query
	for name, f := range terms {
		id, ok := ix.LookupTerm(name)
		if !ok {
			t.Fatalf("term %q not in index", name)
		}
		q = append(q, QueryTerm{Term: id, Fqt: f})
	}
	sort.Slice(q, func(i, j int) bool { return q[i].Term < q[j].Term })
	return q
}

// exactConfig is one cell of the method x policy matrix.
type exactConfig struct {
	name   string
	opts   EvalOptions
	policy Policy
	fault  FaultToleranceOptions
}

// checkSearch runs the same query cold on the live index and on a
// from-scratch oracle and requires bit-identical rankings.
func checkSearch(t *testing.T, live *Index, c *exactCorpus, cfg exactConfig, terms map[string]int, tag string) {
	t.Helper()
	oracle := c.build(t)
	want := runCold(t, oracle, cfg, mkQuery(t, oracle, terms), FaultToleranceOptions{})
	got := runCold(t, live, cfg, mkQuery(t, live, terms), cfg.fault)
	compareTop(t, tag, got, want)
}

func runCold(t *testing.T, ix *Index, cfg exactConfig, q Query, fault FaultToleranceOptions) *Result {
	t.Helper()
	s, err := ix.NewSession(SessionConfig{
		EvalOptions: cfg.opts,
		Policy:      cfg.policy,
		BufferPages: 16,
		Fault:       fault,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := s.Search(q)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return res
}

func compareTop(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if len(got.Top) != len(want.Top) {
		t.Fatalf("%s: live returned %d docs, oracle %d", tag, len(got.Top), len(want.Top))
	}
	for i := range want.Top {
		if got.Top[i].Doc != want.Top[i].Doc || got.Top[i].Score != want.Top[i].Score {
			t.Fatalf("%s rank %d: live (%d, %v), oracle (%d, %v)",
				tag, i+1, got.Top[i].Doc, got.Top[i].Score, want.Top[i].Doc, want.Top[i].Score)
		}
	}
}

// seedCorpus builds the harness's starting state: a main generation of
// 15 documents and its live-enabled index.
func seedCorpus(t *testing.T, rng *rand.Rand) (*Index, *exactCorpus) {
	t.Helper()
	c := newExactCorpus()
	for d := 0; d < 15; d++ {
		name, counts := randomDoc(rng, d)
		c.add(name, counts)
	}
	live := c.build(t)
	if err := live.EnableLiveUpdates(LiveOptions{}); err != nil {
		t.Fatalf("EnableLiveUpdates: %v", err)
	}
	return live, c
}

// run executes one random interleaving of ~ops operations against a
// fresh live index, checking exactness after every search.
func runInterleaving(t *testing.T, cfg exactConfig, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	live, c := seedCorpus(t, rng)
	serial := len(c.docs)

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // ingest one document
			name, counts := randomDoc(rng, serial)
			serial++
			if _, err := live.AddTerms(name, counts); err != nil {
				t.Fatalf("op %d AddTerms: %v", op, err)
			}
			c.add(name, counts)
		case k < 5: // ingest a burst of documents
			for i := 0; i < 1+rng.Intn(3); i++ {
				name, counts := randomDoc(rng, serial)
				serial++
				if _, err := live.AddTerms(name, counts); err != nil {
					t.Fatalf("op %d burst AddTerms: %v", op, err)
				}
				c.add(name, counts)
			}
		case k < 6: // generational merge: same logical content, new epoch
			before := live.Epoch()
			if err := live.Merge(); err != nil {
				t.Fatalf("op %d Merge: %v", op, err)
			}
			if live.DeltaDocs() != 0 {
				t.Fatalf("op %d: delta not drained by merge", op)
			}
			if live.DeltaDocs() == 0 && before != live.Epoch() && live.Epoch() < before {
				t.Fatalf("op %d: merge regressed epoch", op)
			}
			checkSearch(t, live, c, cfg, randomQuery(rng, c), fmt.Sprintf("op %d post-merge", op))
		case k < 7: // canceled search: errors, corrupts nothing
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s, err := live.NewSession(SessionConfig{EvalOptions: cfg.opts, Policy: cfg.policy, BufferPages: 16, Fault: cfg.fault})
			if err != nil {
				t.Fatalf("op %d NewSession: %v", op, err)
			}
			if _, err := s.SearchContext(ctx, mkQuery(t, live, randomQuery(rng, c))); err == nil {
				t.Fatalf("op %d: canceled search returned no error", op)
			}
			checkSearch(t, live, c, cfg, randomQuery(rng, c), fmt.Sprintf("op %d post-cancel", op))
		default: // plain search
			checkSearch(t, live, c, cfg, randomQuery(rng, c), fmt.Sprintf("op %d", op))
		}
	}
	// Final sweep: a merge and one search per corpus-wide common term.
	if err := live.Merge(); err != nil {
		t.Fatalf("final Merge: %v", err)
	}
	checkSearch(t, live, c, cfg, randomQuery(rng, c), "final")
}

// TestIngestExactness is the main matrix: every evaluation method, a
// rotating replacement policy, one deterministic interleaving each.
func TestIngestExactness(t *testing.T) {
	methods := []struct {
		name   string
		opts   EvalOptions
		policy Policy
		seed   int64
	}{
		{"FULL", EvalOptions{Algorithm: DF, Unfiltered: true}, LRU, 1000},
		{"DF", EvalOptions{Algorithm: DF}, MRU, 1001},
		{"BAF", EvalOptions{Algorithm: BAF}, RAP, 1002},
		{"MAXSCORE", EvalOptions{Algorithm: Maxscore}, RAP, 1005},
	}
	for _, m := range methods {
		cfg := exactConfig{name: m.name, opts: m.opts, policy: m.policy}
		t.Run(m.name+"/"+string(cfg.policy), func(t *testing.T) {
			t.Parallel()
			runInterleaving(t, cfg, m.seed, 25)
		})
	}
}

// TestIngestExactnessUnderFaults reruns the interleaving with a
// transient fault schedule injected under the live index and retries
// on the live sessions: rode-out faults must leave answers
// bit-identical to the fault-free oracle, across commits and merges
// (each published generation re-wraps in a fresh fault layer).
func TestIngestExactnessUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	live, c := seedCorpus(t, rng)
	if err := live.InjectFaults("transient:prob=0.2", 7); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	cfg := exactConfig{
		opts:   EvalOptions{Algorithm: BAF},
		policy: RAP,
		fault:  FaultToleranceOptions{Retries: 8},
	}
	serial := len(c.docs)
	sawFaults := false
	for op := 0; op < 20; op++ {
		if rng.Intn(2) == 0 {
			name, counts := randomDoc(rng, serial)
			serial++
			if _, err := live.AddTerms(name, counts); err != nil {
				t.Fatalf("op %d AddTerms: %v", op, err)
			}
			c.add(name, counts)
		}
		if op == 10 {
			if err := live.Merge(); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		checkSearch(t, live, c, cfg, randomQuery(rng, c), fmt.Sprintf("op %d", op))
		// Each publication re-wraps the store in a fresh fault layer
		// with zeroed counters, so sample before the next commit.
		sawFaults = sawFaults || live.FaultStats().Transient > 0
	}
	if !sawFaults {
		t.Fatal("fault layer injected nothing; schedule not in effect")
	}
}

// TestIngestExactnessRefinement interleaves a refinement with
// ingestion: every step's result must equal a cold oracle evaluation
// of the refined query over the CURRENT corpus, and the step that
// crosses an epoch bump must run on the new generation, stamped with
// its epoch, never on the pool of the dead one.
func TestIngestExactnessRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	live, c := seedCorpus(t, rng)
	cfg := exactConfig{opts: EvalOptions{Algorithm: DF}, policy: LRU}

	s, err := live.NewSession(SessionConfig{EvalOptions: cfg.opts, Policy: cfg.policy, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkStep := func(tag string, res *Result, q Query) {
		t.Helper()
		oracle := c.build(t)
		names := make(map[string]int, len(q))
		for _, qt := range q {
			names[live.TermName(qt.Term)] = qt.Fqt
		}
		want := runCold(t, oracle, cfg, mkQuery(t, oracle, names), FaultToleranceOptions{})
		compareTop(t, tag, res, want)
	}

	initial := mkQuery(t, live, map[string]int{exactTerm(0): 1, exactTerm(1): 1})
	r, res, err := startRefinement(context.Background(), s, initial)
	if err != nil {
		t.Fatal(err)
	}
	checkStep("initial", res, r.Current())

	// ADD-ONLY step on a quiet index, over the warm pool.
	id2 := mkQuery(t, live, map[string]int{exactTerm(2): 1})
	res, err = r.AddContext(context.Background(), id2...)
	if err != nil {
		t.Fatal(err)
	}
	checkStep("step 2", res, r.Current())
	before := res.Epoch

	// Ingest between steps: the next step crosses an epoch bump.
	name, counts := randomDoc(rng, len(c.docs))
	counts[exactTerm(0)] = 5 // reshape the ranking of the refined query
	if _, err := live.AddTerms(name, counts); err != nil {
		t.Fatal(err)
	}
	c.add(name, counts)

	id3 := mkQuery(t, live, map[string]int{exactTerm(3): 1})
	res, err = r.AddContext(context.Background(), id3...)
	if err != nil {
		t.Fatal(err)
	}
	checkStep("step 3 (post-ingest)", res, r.Current())
	if res.Epoch <= before || res.Epoch != live.Epoch() {
		t.Fatalf("step crossing an epoch bump ran at epoch %d (before %d, index at %d)",
			res.Epoch, before, live.Epoch())
	}

	// And once more on the new generation.
	id4 := mkQuery(t, live, map[string]int{exactTerm(4): 1})
	res, err = r.AddContext(context.Background(), id4...)
	if err != nil {
		t.Fatal(err)
	}
	checkStep("step 4", res, r.Current())
}
