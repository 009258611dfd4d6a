package eval

import (
	"context"
	"fmt"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

var benchSink *Result

// benchCase is one evaluator and method BenchmarkEvaluate prices.
type benchCase struct {
	ev   *Evaluator
	algo Algorithm
}

// BenchmarkEvaluate prices the evaluator's own bookkeeping — the layer
// the repository benchmark's outside-in trace reports as one number
// (eval.ns_per_entry, evalsafe.ns_per_entry) and cannot split — over
// candidates (the tiny 4 000-document corpus and the 40 000-document
// one the repository benchmark serves) × lists × method: exact
// MAXSCORE (= FULL), and on the 40 000-document collection DF and BAF
// under TunedParams too. The pool holds every page and is warmed first, so
// fetches are hits and the time is admission, accumulator and ranking
// upkeep. `make ci` runs it once per case as a smoke.
func BenchmarkEvaluate(b *testing.B) {
	for _, cfg := range []corpus.Config{corpus.TinyConfig(1998), corpus.DefaultConfig(1998)} {
		coll, err := corpus.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ix, pages, err := postings.Build(coll.Lists, coll.NumDocs, cfg.PageSize)
		if err != nil {
			b.Fatal(err)
		}
		pool, err := buffer.NewManager(len(pages), 1, storage.NewStore(pages), ix, func(int) buffer.Policy { return buffer.NewLRU() })
		if err != nil {
			b.Fatal(err)
		}
		conv := postings.NewConversionTable(ix, postings.DefaultMaxKey)
		ev, err := NewEvaluator(ix, pool, conv, Params{TopN: 20})
		if err != nil {
			b.Fatal(err)
		}
		filtered, err := NewEvaluator(ix, pool, conv, TunedParams())
		if err != nil {
			b.Fatal(err)
		}
		// The first topics' terms, most selective first as a user would
		// type them; prefixes of it are the shorter queries.
		var terms Query
		seen := make(map[postings.TermID]bool)
		for _, topic := range coll.Topics {
			for _, tt := range topic.Terms {
				if id, ok := ix.LookupTerm(tt.Term); ok && !seen[id] && len(terms) < 70 {
					seen[id] = true
					terms = append(terms, QueryTerm{Term: id, Fqt: tt.Fqt})
				}
			}
		}
		for _, lists := range []int{8, 32, 70} {
			q := terms[:lists]
			cases := []benchCase{{ev: ev, algo: MAXSCORE}}
			if cfg.NumDocs == corpus.DefaultConfig(1998).NumDocs {
				cases = append(cases, benchCase{ev: filtered, algo: DF}, benchCase{ev: filtered, algo: BAF})
			}
			for _, c := range cases {
				name := fmt.Sprintf("docs=%d/lists=%d/%v", cfg.NumDocs, lists, c.algo)
				evaluate := func() (*Result, error) {
					return c.ev.EvaluateContext(context.Background(), c.algo, q)
				}
				b.Run(name, func(b *testing.B) {
					res, err := evaluate()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if benchSink, err = evaluate(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.EntriesProcessed), "ns/entry")
					b.ReportMetric(float64(res.Accumulators), "candidates")
				})
			}
		}
	}
}
