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

// BenchmarkEvaluate prices the rank-safe evaluator's own bookkeeping —
// the layer the repository benchmark's outside-in trace reports as one
// number (evalsafe.ns_per_entry) and cannot split — over candidates
// (the tiny 4 000-document corpus and the 40 000-document one the
// repository benchmark serves) × lists × method. The pool holds every
// page and is warmed first, so fetches are hits and the time is table,
// arena, heap and proof upkeep. `make ci` runs it once per case as a
// smoke.
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
		ev, err := NewEvaluator(ix, pool, postings.NewConversionTable(ix, postings.DefaultMaxKey), Params{TopN: 20})
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
			for _, algo := range safeAlgos {
				b.Run(fmt.Sprintf("docs=%d/lists=%d/%v", cfg.NumDocs, lists, algo), func(b *testing.B) {
					res, err := ev.EvaluateContext(context.Background(), algo, q)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if benchSink, err = ev.EvaluateContext(context.Background(), algo, q); err != nil {
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
