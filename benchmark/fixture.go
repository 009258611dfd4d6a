package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bufir"
)

// The fixture's constants. They are identical on both sides of any
// comparison; changing one starts a new baseline.
const (
	// corpusSeed fixes the collection, its topics and therefore the
	// index file and the set of queries in a pass. --seed does not
	// reach it: two seeds that drew different topics differed by 40 %
	// in pages read and qps on the same code, which would bury any
	// regression bound. --seed drives what may vary without changing
	// the amount of work in a pass: which user replays which
	// refinement sequence (and so the order in which the sequences
	// interleave), and the content of the ingested documents.
	corpusSeed = 1998
	// numUsers refinement sessions run side by side, driven by
	// numClients closed-loop clients (nproc is 2).
	numUsers   = 16
	numClients = 2
	// topN is the answer size of every workload (the paper's 20).
	topN = 20
	// topicStride spreads the users' topics over the 100 generated
	// ones: sequence s replays topic (topicStride*s mod numTopics).
	topicStride = 7
	// ingestTokens is the length of an ingested document.
	ingestTokens = 120
)

// spanSet collects the named set-up durations of one fixture build and
// deployment, in seconds.
type spanSet map[string]float64

// timeSpan runs f and books its duration under name.
func (s spanSet) timeSpan(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	s[name] += time.Since(t0).Seconds()
	return err
}

func (s spanSet) total() float64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum
}

// fixture is one generated collection, its in-memory index and the
// BUFIR2 file written from it.
type fixture struct {
	cfg  bufir.CollectionConfig
	col  *bufir.Collection
	ix   *bufir.Index
	path string
	// postings is the number of (document, frequency) entries indexed;
	// fileBytes the size of the BUFIR2 file.
	postings  int64
	fileBytes int64
}

// buildFixture generates the collection, indexes it and writes the
// index file into dir, booking the three spans.
func buildFixture(cfg bufir.CollectionConfig, dir string, spans spanSet) (*fixture, error) {
	fx := &fixture{cfg: cfg, path: filepath.Join(dir, "index.bufir2")}
	if err := spans.timeSpan("corpus.generate_s", func() (err error) {
		fx.col, err = bufir.GenerateCollection(cfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("generating collection: %w", err)
	}
	if err := spans.timeSpan("postings.build_s", func() (err error) {
		fx.ix, err = bufir.NewIndex(fx.col)
		return err
	}); err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	if err := spans.timeSpan("indexfile.write_s", func() error {
		return fx.ix.WriteFile(fx.path, 0)
	}); err != nil {
		return nil, fmt.Errorf("writing index file: %w", err)
	}
	for _, l := range fx.col.Lists {
		fx.postings += int64(len(l.Entries))
	}
	st, err := os.Stat(fx.path)
	if err != nil {
		return nil, err
	}
	fx.fileBytes = st.Size()
	return fx, nil
}

// step is one query of the stream: user's idx-th refinement. id
// indexes the oracle.
type step struct {
	user, idx, id int
	q             bufir.Query
}

// stream is the query stream every workload replays: one refinement
// sequence per user. A pass is every step of every user once.
type stream struct {
	users [][]step
	steps int
}

// buildSequences derives the numUsers refinement sequences from the
// fixture: sequence s replays topic (topicStride*s mod topics),
// ADD-ONLY for even s and ADD-DROP for odd s. The set of sequences
// depends on the collection only.
func buildSequences(fx *fixture) ([][]bufir.Query, error) {
	seqs := make([][]bufir.Query, numUsers)
	for s := range seqs {
		topic := fx.col.Topics[(topicStride*s)%len(fx.col.Topics)]
		q, err := fx.ix.TopicQuery(topic)
		if err != nil {
			return nil, err
		}
		ranked, err := fx.ix.RankTermsByContribution(q)
		if err != nil {
			return nil, err
		}
		kind := bufir.AddOnly
		if s%2 == 1 {
			kind = bufir.AddDrop
		}
		seq, err := bufir.BuildRefinementSequence(topic.ID, kind, ranked)
		if err != nil {
			return nil, err
		}
		seqs[s] = seq.Refinements
	}
	return seqs, nil
}

// buildStream deals the sequences to users by a seeded permutation:
// the seed decides in which order the sequences interleave, never
// which queries a pass holds.
func buildStream(seqs [][]bufir.Query, seed int64) *stream {
	perm := rand.New(rand.NewSource(seed)).Perm(len(seqs))
	st := &stream{users: make([][]step, len(seqs))}
	base := make([]int, len(seqs)+1)
	for s, seq := range seqs {
		base[s+1] = base[s] + len(seq)
	}
	for u := range st.users {
		s := perm[u]
		for i, q := range seqs[s] {
			st.users[u] = append(st.users[u], step{user: u, idx: i, id: base[s] + i, q: q})
		}
		st.steps += len(seqs[s])
	}
	return st
}

// passOrder lists one pass in issue order: round-robin over the users,
// one step each, until every sequence is exhausted. A user's steps
// stay in order.
func (st *stream) passOrder() []step {
	out := make([]step, 0, st.steps)
	for r := 0; len(out) < st.steps; r++ {
		for _, steps := range st.users {
			if r < len(steps) {
				out = append(out, steps[r])
			}
		}
	}
	return out
}

// ingestDoc is one document for the live workload, as (term,
// frequency) pairs over the index vocabulary.
type ingestDoc struct {
	name   string
	counts map[string]int
}

// ingestSource draws seeded documents of ingestTokens tokens from the
// index vocabulary, skewed towards low term ids (the frequent bands),
// so the documents land in lists the queries read.
type ingestSource struct {
	rng   *rand.Rand
	names []string
	n     int
}

func newIngestSource(fx *fixture, seed int64) *ingestSource {
	names := make([]string, len(fx.col.Lists))
	for i, l := range fx.col.Lists {
		names[i] = l.Name
	}
	return &ingestSource{rng: rand.New(rand.NewSource(seed ^ 0x6c697665)), names: names}
}

func (s *ingestSource) next() ingestDoc {
	counts := make(map[string]int, ingestTokens)
	for i := 0; i < ingestTokens; i++ {
		a, b := s.rng.Intn(len(s.names)), s.rng.Intn(len(s.names))
		if b < a {
			a = b
		}
		counts[s.names[a]]++
	}
	s.n++
	return ingestDoc{name: fmt.Sprintf("live%06d", s.n), counts: counts}
}

// workDir creates the directory that holds every file the benchmark
// writes: a fresh one under .bench_build in the working directory, so
// a run stays inside its checkout.
func workDir() (string, error) {
	root := ".bench_build"
	if err := os.MkdirAll(root, 0o777); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// describeQuery renders a step for failure messages.
func describeQuery(s step) string {
	return fmt.Sprintf("user %d step %d (%d terms)", s.user, s.idx, len(s.q))
}
