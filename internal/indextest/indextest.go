// Package indextest is the backend-agnostic conformance suite for the
// Index port: one fixed set of properties every way of materializing
// an index — the in-memory simulator, the file-backed stores in both
// access modes, and the live delta-overlay — must satisfy. A backend
// is admissible when, over the same corpus, it returns the same ranked
// answers (documents, float64 scores, tie order) as every other
// backend under every evaluation method, charges delivered pages
// honestly, and (for live backends) publishes strictly monotone
// generations that queries never straddle.
//
// The suite is driven from the root package's tests (they can
// construct every backend); run it as
//
//	indextest.Run(t, backends)
//
// with one Backend per construction path.
package indextest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufir"
)

// Backend describes one way of materializing an Index over a corpus.
type Backend struct {
	// Name labels the backend in subtest paths.
	Name string
	// Live marks backends whose Open returns a live-enabled index
	// (EnableLiveUpdates already applied), opting them into the
	// ingestion properties.
	Live bool
	// Open builds the backend's index over docs. Register any cleanup
	// (file handles, temp dirs) on t inside Open.
	Open func(t *testing.T, docs []bufir.Document) *bufir.Index
}

// word spells vocabulary slot i as an alphabetic token (the lexical
// pipeline treats digits as separators): w + two base-26 letters.
func word(i int) string {
	return string([]byte{'w', byte('a' + i/26), byte('a' + i%26)})
}

// Corpus returns the deterministic document set the suite runs over:
// n documents of skewed synthetic text (a fixed linear-congruential
// stream, so every run and every backend sees byte-identical input).
func Corpus(n int) []bufir.Document {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(m int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(m))
	}
	docs := make([]bufir.Document, n)
	for d := range docs {
		var b strings.Builder
		words := 30 + next(40)
		for i := 0; i < words; i++ {
			// min-of-two-uniforms skews toward low word IDs, giving
			// the vocabulary a zipf-ish frequency profile.
			a, c := next(120), next(120)
			if c < a {
				a = c
			}
			b.WriteString(word(a))
			b.WriteByte(' ')
		}
		docs[d] = bufir.Document{Name: fmt.Sprintf("d%04d", d), Text: b.String()}
	}
	return docs
}

// queries is the fixed query set: a common singleton, multi-term mixes
// of common and mid-frequency words, and a rare-heavy query.
var queries = []string{
	word(0),
	word(0) + " " + word(1) + " " + word(2),
	word(3) + " " + word(17) + " " + word(42),
	word(10) + " " + word(80) + " " + word(111),
	word(1) + " " + word(5) + " " + word(25) + " " + word(60) + " " + word(99),
}

// methods is the evaluation axis: FULL (exhaustive unfiltered), the
// paper's unsafe filtering pair, and exact MAXSCORE.
var methods = []struct {
	Name string
	Opts bufir.EvalOptions
}{
	{"FULL", bufir.EvalOptions{Algorithm: bufir.DF, Unfiltered: true}},
	{"DF", bufir.EvalOptions{Algorithm: bufir.DF}},
	{"BAF", bufir.EvalOptions{Algorithm: bufir.BAF}},
	{"MAXSCORE", bufir.EvalOptions{Algorithm: bufir.Maxscore}},
}

// hit is one ranked answer entry, keyed by document NAME: backends may
// legitimately assign different DocIDs and TermIDs (the delta-overlay
// numbers added documents after its base), so names and scores are the
// backend-independent observable.
type hit struct {
	Name  string
	Score float64
}

// answer runs one search on a fresh session and returns the ranked
// answer as (name, score) pairs.
func answer(t *testing.T, ix *bufir.Index, opts bufir.EvalOptions, query string) []hit {
	t.Helper()
	s, err := ix.NewSession(bufir.SessionConfig{EvalOptions: opts, BufferPages: 16})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := s.SearchTextContext(context.Background(), query)
	if err != nil {
		t.Fatalf("SearchText(%q): %v", query, err)
	}
	hits := make([]hit, len(res.Top))
	for i, d := range res.Top {
		hits[i] = hit{Name: ix.DocName(d.Doc), Score: d.Score}
	}
	return hits
}

func diffHits(got, want []hit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("rank %d: got (%s, %v), want (%s, %v)",
				i+1, got[i].Name, got[i].Score, want[i].Name, want[i].Score)
		}
	}
	return ""
}

// Run executes the conformance suite. backends[0] is the reference
// implementation the others are compared against; by convention pass
// the in-memory simulator first.
func Run(t *testing.T, backends []Backend) {
	docs := Corpus(60)
	t.Run("ReadEquivalence", func(t *testing.T) { readEquivalence(t, backends, docs) })
	t.Run("DeliveredPages", func(t *testing.T) { deliveredPages(t, backends, docs) })
	for _, b := range backends {
		if !b.Live {
			continue
		}
		b := b
		t.Run("EpochMonotonicity/"+b.Name, func(t *testing.T) { epochMonotonicity(t, b, docs) })
		t.Run("SwapIsolation/"+b.Name, func(t *testing.T) { swapIsolation(t, b, docs) })
	}
}

// readEquivalence: every backend returns bit-identical ranked answers
// (documents, float64 scores, tie order) to the reference backend for
// the full query set under every evaluation method.
func readEquivalence(t *testing.T, backends []Backend, docs []bufir.Document) {
	ref := backends[0].Open(t, docs)
	want := make(map[string][]hit)
	for _, m := range methods {
		for _, q := range queries {
			want[m.Name+"/"+q] = answer(t, ref, m.Opts, q)
		}
	}
	for _, b := range backends[1:] {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ix := b.Open(t, docs)
			for _, m := range methods {
				for _, q := range queries {
					got := answer(t, ix, m.Opts, q)
					if d := diffHits(got, want[m.Name+"/"+q]); d != "" {
						t.Errorf("%s %q: %s", m.Name, q, d)
					}
				}
			}
		})
	}
}

// deliveredPages: a cold session's first search charges exactly the
// pages the backend delivered (the index's disk-read counter moves by
// res.PagesRead — for live backends this means no main-generation
// read behind a commit's page is charged), and a repeat of the
// same query on the warm session charges only its misses.
func deliveredPages(t *testing.T, backends []Backend, docs []bufir.Document) {
	for _, b := range backends {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ix := b.Open(t, docs)
			s, err := ix.NewSession(bufir.SessionConfig{
				EvalOptions: bufir.EvalOptions{Algorithm: bufir.DF, Unfiltered: true},
				BufferPages: 8, // small enough to force re-reads across queries
			})
			if err != nil {
				t.Fatal(err)
			}
			ix.ResetDiskReads()
			res, err := s.SearchTextContext(context.Background(), queries[1])
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.DiskReads(); got != int64(res.PagesRead) {
				t.Errorf("cold search: store delivered %d pages, result charged %d", got, res.PagesRead)
			}
			ix.ResetDiskReads()
			res2, err := s.SearchTextContext(context.Background(), queries[1])
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.DiskReads(); got != int64(res2.PagesRead) {
				t.Errorf("warm search: store delivered %d pages, result charged %d", got, res2.PagesRead)
			}
			if res2.PagesRead > res.PagesRead {
				t.Errorf("warm search read more pages (%d) than cold (%d)", res2.PagesRead, res.PagesRead)
			}
		})
	}
}

// addExtraDoc ingests the i-th extra document of the live properties:
// heavy in the common query terms so each publication visibly reshapes
// the top of the ranking.
func addExtraDoc(ix *bufir.Index, i int) error {
	common := word(0) + " " + word(1) + " " + word(2) + " "
	_, err := ix.Add(fmt.Sprintf("x%04d", i), strings.Repeat(common, 3+i)+"v"+word(i)[1:])
	return err
}

// epochMonotonicity: every Add publishes a strictly larger epoch, a
// merge publishes a strictly larger epoch even though the logical
// content is unchanged (the invalidation contract), and the delta
// drains to zero after the merge.
func epochMonotonicity(t *testing.T, b Backend, docs []bufir.Document) {
	ix := b.Open(t, docs)
	last := ix.Epoch()
	base := ix.DeltaDocs() // overlay backends open with a populated delta
	for i := 0; i < 5; i++ {
		if err := addExtraDoc(ix, i); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
		if e := ix.Epoch(); e <= last {
			t.Fatalf("Add %d: epoch %d not above %d", i, e, last)
		} else {
			last = e
		}
	}
	if got := ix.DeltaDocs(); got != base+5 {
		t.Fatalf("DeltaDocs = %d, want %d", got, base+5)
	}
	before := answer(t, ix, methods[0].Opts, queries[1])
	if err := ix.Merge(); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if e := ix.Epoch(); e <= last {
		t.Fatalf("merge: epoch %d not above %d", e, last)
	}
	if ix.DeltaDocs() != 0 {
		t.Fatalf("DeltaDocs = %d after merge, want 0", ix.DeltaDocs())
	}
	after := answer(t, ix, methods[0].Opts, queries[1])
	if d := diffHits(after, before); d != "" {
		t.Fatalf("merge changed the answer: %s", d)
	}
}

// swapIsolation: with a writer publishing generations (adds and a
// merge) while reader sessions query concurrently, every result is
// entirely from one generation — its stamped epoch's reference answer,
// never a blend — and each reader observes epochs monotonically.
func swapIsolation(t *testing.T, b Backend, docs []bufir.Document) {
	ix := b.Open(t, docs)
	const extras = 8
	query := queries[1]
	full := methods[0].Opts

	// ref holds the per-epoch reference answer, recorded by the writer
	// synchronously after each publication (the view is immutable once
	// published, so readers racing with the recording still compare
	// against the same generation).
	var (
		mu  sync.Mutex
		ref = map[uint64][]hit{}
	)
	record := func() {
		e := ix.Epoch()
		hits := answer(t, ix, full, query)
		mu.Lock()
		ref[e] = hits
		mu.Unlock()
	}
	record()

	stop := make(chan struct{})
	type observed struct {
		epoch uint64
		hits  []hit
	}
	var (
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	results := make([][]observed, 3)
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := ix.NewSession(bufir.SessionConfig{EvalOptions: full, BufferPages: 16})
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.SearchTextContext(context.Background(), query)
				if err != nil {
					t.Error(err)
					return
				}
				hits := make([]hit, len(res.Top))
				for i, d := range res.Top {
					hits[i] = hit{Name: ix.DocName(d.Doc), Score: d.Score}
				}
				results[r] = append(results[r], observed{epoch: res.Epoch, hits: hits})
				reads.Add(1)
			}
		}(r)
	}

	// Pace the writer against reader progress so the publications
	// actually interleave with queries: each generation stays current
	// until at least a few results were served against it.
	awaitReads := func(n int64) {
		want := reads.Load() + n
		deadline := time.Now().Add(5 * time.Second)
		for reads.Load() < want && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	awaitReads(3)
	for i := 0; i < extras; i++ {
		if err := addExtraDoc(ix, i); err != nil {
			t.Errorf("Add %d: %v", i, err)
			break
		}
		record()
		if i == extras/2 {
			if err := ix.Merge(); err != nil {
				t.Errorf("Merge: %v", err)
				break
			}
			record()
		}
		awaitReads(3)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	epochs := make([]uint64, 0, len(ref))
	for e := range ref {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

	total := 0
	for r, seq := range results {
		var last uint64
		for i, o := range seq {
			if o.epoch < last {
				t.Fatalf("reader %d: epoch went backwards %d -> %d", r, last, o.epoch)
			}
			last = o.epoch
			want, ok := ref[o.epoch]
			if !ok {
				// DocName races the publication of the very epoch the
				// result came from only for unknown epochs; known ones
				// are pinned. Unknown means a bug.
				t.Fatalf("reader %d result %d: unknown epoch %d (have %v)", r, i, o.epoch, epochs)
			}
			if d := diffHits(o.hits, want); d != "" {
				t.Fatalf("reader %d result %d (epoch %d): %s", r, i, o.epoch, d)
			}
		}
		total += len(seq)
	}
	if total == 0 {
		t.Fatal("readers produced no results")
	}
}
