package bufir_test

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§5), each running the corresponding
// experiment end-to-end against the shared synthetic environment and
// reporting its headline quantity via b.ReportMetric. DESIGN.md §4
// maps benchmarks to paper artifacts; cmd/irbench prints the full
// tables at the default (larger) scale.

import (
	"context"
	"sync"
	"testing"

	. "bufir"
	"bufir/internal/corpus"
	"bufir/internal/experiments"
	"bufir/internal/refine"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// env returns the shared benchmark environment (tiny scale, so the
// full suite of benchmarks stays in benchmark-friendly territory).
func env(b *testing.B) *experiments.Env {
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(corpus.TinyConfig(1998))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkFig3DFSavings regenerates Figure 3 and the §5.1.1
// aggregates: DF's disk savings over exhaustive evaluation across all
// topics, cold buffers.
func BenchmarkFig3DFSavings(b *testing.B) {
	e := env(b)
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		savings = res.AvgSavingsPct
	}
	b.ReportMetric(savings, "savings_%")
}

// BenchmarkFig4SmaxTrace regenerates Figure 4: the S_max evolution of
// the three representative queries.
func BenchmarkFig4SmaxTrace(b *testing.B) {
	e := env(b)
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		final = res.Series[0].Smax[len(res.Series[0].Smax)-1]
	}
	b.ReportMetric(final, "Smax_q1")
}

// BenchmarkTable4IndexStats regenerates Table 4: the inverted-list
// length histogram by idf band.
func BenchmarkTable4IndexStats(b *testing.B) {
	e := env(b)
	var multi int
	for i := 0; i < b.N; i++ {
		res, err := e.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		multi = res.MultiPage
	}
	b.ReportMetric(float64(multi), "multipage_terms")
}

// BenchmarkTable5QueryDetails regenerates Table 5: per-query DF
// savings for the four engineered queries.
func BenchmarkTable5QueryDetails(b *testing.B) {
	e := env(b)
	var q1 float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunTable5()
		if err != nil {
			b.Fatal(err)
		}
		q1 = res.Rows[0].SavingsPct
	}
	b.ReportMetric(q1, "q1_savings_%")
}

// BenchmarkTable12WorkedExample regenerates Tables 1-2: the §3.2.1
// worked refinement, DF vs BAF reads for the added term.
func BenchmarkTable12WorkedExample(b *testing.B) {
	e := env(b)
	var df, baf int
	for i := 0; i < b.N; i++ {
		res, err := e.RunWorkedExample()
		if err != nil {
			b.Fatal(err)
		}
		df, baf = res.DFReads, res.BAFReads
	}
	b.ReportMetric(float64(df), "df_reads")
	b.ReportMetric(float64(baf), "baf_reads")
}

// BenchmarkTable6TermGroups regenerates Table 6: contribution-ranked
// term groups of the ADD-ONLY-QUERY1 sequence.
func BenchmarkTable6TermGroups(b *testing.B) {
	e := env(b)
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := e.RunTable6()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "terms")
}

// benchSweep shares the Figure 5-8 logic.
func benchSweep(b *testing.B, figure string, topic int, kind refine.Kind) {
	e := env(b)
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunSweep(figure, topic, kind, 6)
		if err != nil {
			b.Fatal(err)
		}
		best = res.BestSavings("DF/LRU", "BAF/RAP")
	}
	b.ReportMetric(best, "best_savings_%")
}

// BenchmarkFig5AddOnlyQuery1 regenerates Figure 5 (ADD-ONLY-QUERY1
// buffer sweep, all six algorithm/policy combinations).
func BenchmarkFig5AddOnlyQuery1(b *testing.B) { benchSweep(b, "Figure 5", 0, refine.AddOnly) }

// BenchmarkFig6AddOnlyQuery2 regenerates Figure 6 (ADD-ONLY-QUERY2).
func BenchmarkFig6AddOnlyQuery2(b *testing.B) { benchSweep(b, "Figure 6", 1, refine.AddOnly) }

// BenchmarkFig7AddDropQuery1 regenerates Figure 7 (ADD-DROP-QUERY1).
func BenchmarkFig7AddDropQuery1(b *testing.B) { benchSweep(b, "Figure 7", 0, refine.AddDrop) }

// BenchmarkFig8AddDropQuery2 regenerates Figure 8 (ADD-DROP-QUERY2).
func BenchmarkFig8AddDropQuery2(b *testing.B) { benchSweep(b, "Figure 8", 1, refine.AddDrop) }

// BenchmarkTable7LastRefinement regenerates Table 7: disk reads of the
// last refinement at a mid-sweep buffer size, plus the collapsed
// variant.
func BenchmarkTable7LastRefinement(b *testing.B) {
	e := env(b)
	var dfLRU, bafRAP int
	for i := 0; i < b.N; i++ {
		res, err := e.RunTable7()
		if err != nil {
			b.Fatal(err)
		}
		dfLRU = res.Blocks[0].Reads["DF/LRU"]
		bafRAP = res.Blocks[0].Reads["BAF/RAP"]
	}
	b.ReportMetric(float64(dfLRU), "df_lru_reads")
	b.ReportMetric(float64(bafRAP), "baf_rap_reads")
}

// BenchmarkSummaryAllSequences regenerates the §5.2.1 aggregate:
// best-case savings of BAF/RAP over DF/LRU across all sequences.
func BenchmarkSummaryAllSequences(b *testing.B) {
	e := env(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunSummary(refine.AddOnly, 0, 5)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Mean
	}
	b.ReportMetric(mean, "mean_best_savings_%")
}

// BenchmarkEffectiveness regenerates the §5.2/§5.2.3 effectiveness and
// accumulator comparison.
func BenchmarkEffectiveness(b *testing.B) {
	e := env(b)
	var within float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunEffectiveness(4, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs > 0 {
			within = 100 * float64(res.Within5Pct["RAP"]) / float64(res.Runs)
		}
	}
	b.ReportMetric(within, "within5pct_%")
}

// BenchmarkSearchDFCold measures raw single-query evaluation cost
// under DF with cold buffers (micro-benchmark supporting the others).
func BenchmarkSearchDFCold(b *testing.B) {
	benchSearch(b, DF, true)
}

// BenchmarkSearchBAFWarm measures repeated BAF evaluation against warm
// buffers — the refinement fast path.
func BenchmarkSearchBAFWarm(b *testing.B) {
	benchSearch(b, BAF, false)
}

func benchSearch(b *testing.B, algo Algorithm, flush bool) {
	col, err := GenerateCollection(TinyCollectionConfig(1998))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIndex(col)
	if err != nil {
		b.Fatal(err)
	}
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		b.Fatal(err)
	}
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: algo}, Policy: RAP, BufferPages: 512})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flush {
			s.FlushBuffers()
		}
		if _, err := s.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiUserShared regenerates the §3.3 multi-user extension
// comparison (E12).
func BenchmarkMultiUserShared(b *testing.B) {
	e := env(b)
	var sharedAdvantage float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunMultiUser(4)
		if err != nil {
			b.Fatal(err)
		}
		mid := len(res.Sizes) / 2
		seg := res.Series["segmented/RAP"][mid]
		shared := res.Series["shared/RAP"][mid]
		if seg > 0 {
			sharedAdvantage = 100 * float64(seg-shared) / float64(seg)
		}
	}
	b.ReportMetric(sharedAdvantage, "shared_savings_%")
}

// BenchmarkConcurrentMultiUser measures the concurrent serving layer:
// 16 users submitting the E12 topic queries to an 8-worker engine over
// a shared buffer pool sharded 8 ways.
func BenchmarkConcurrentMultiUser(b *testing.B) {
	col, err := GenerateCollection(TinyCollectionConfig(1998))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIndex(col)
	if err != nil {
		b.Fatal(err)
	}
	var queries [2]Query
	for ti := range queries {
		q, err := ix.TopicQuery(col.Topics[ti])
		if err != nil {
			b.Fatal(err)
		}
		queries[ti] = q
	}
	const users = 16
	b.ResetTimer()
	var pagesRead int64
	for i := 0; i < b.N; i++ {
		eng, err := ix.NewEngine(EngineConfig{
			EvalOptions: EvalOptions{Algorithm: BAF},
			Workers:     8, Shards: 8, BufferPages: 128,
		})
		if err != nil {
			b.Fatal(err)
		}
		tickets := make([]*Ticket, 0, users)
		for u := 0; u < users; u++ {
			t, err := eng.SubmitContext(context.Background(), u, queries[u%len(queries)])
			if err != nil {
				b.Fatal(err)
			}
			tickets = append(tickets, t)
		}
		for _, t := range tickets {
			if _, err := t.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		pagesRead = eng.Stats().PagesRead
		eng.Close()
	}
	b.ReportMetric(float64(users), "queries/op")
	b.ReportMetric(float64(pagesRead), "pages_read")
}

// BenchmarkBaselinePolicies regenerates the footnote-7/14 policy
// baseline comparison (E14).
func BenchmarkBaselinePolicies(b *testing.B) {
	e := env(b)
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunBaselines(4)
		if err != nil {
			b.Fatal(err)
		}
		adv = res.LRUFamilyMaxAdvantagePct()
	}
	b.ReportMetric(adv, "lruk_2q_advantage_%")
}

// BenchmarkCompression regenerates the [PZSD96] physical-design
// experiment (E15).
func BenchmarkCompression(b *testing.B) {
	e := env(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunCompression()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Stats.Ratio()
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkFeedbackRefinement regenerates the relevance-feedback
// workload experiment (E16).
func BenchmarkFeedbackRefinement(b *testing.B) {
	e := env(b)
	var terms int
	for i := 0; i < b.N; i++ {
		res, err := e.RunFeedback(0, 4)
		if err != nil {
			b.Fatal(err)
		}
		terms = res.FinalTerms
	}
	b.ReportMetric(float64(terms), "final_terms")
}

// BenchmarkDocSortedBaseline regenerates the footnote-14 doc-sorted
// engine comparison (E17).
func BenchmarkDocSortedBaseline(b *testing.B) {
	e := env(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := e.RunDocSorted(4)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Sizes) - 1
		if df := res.Series["DF/LRU"][last]; df > 0 {
			ratio = float64(res.Series["docsorted-OR/LRU"][last]) / float64(df)
		}
	}
	b.ReportMetric(ratio, "docsorted_vs_df_reads")
}

// BenchmarkAblations regenerates the design-choice ablations (E13).
func BenchmarkAblations(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.RunAblations(); err != nil {
			b.Fatal(err)
		}
	}
}
