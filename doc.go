// Package bufir is a buffer-aware information-retrieval engine: a Go
// reproduction of Jónsson, Franklin and Srivastava, "Interaction of
// Query Evaluation and Buffer Management for Information Retrieval"
// (SIGMOD 1998).
//
// The library implements ranked document retrieval over
// frequency-sorted inverted lists with two complementary
// buffer-oriented techniques from the paper:
//
//   - Buffer-Aware Filtering (BAF): an unsafe (approximate) query
//     evaluation algorithm that extends Persin's Document Filtering
//     (DF) by processing, at each step, the query term whose inverted
//     list needs the fewest estimated disk reads given the current
//     buffer contents.
//   - Ranking-Aware Policy (RAP): a buffer replacement policy that
//     values each inverted-list page by w*_{d,t}·w_{q,t} — the highest
//     document weight on the page times the term's weight in the
//     current query — so pages useful to the running (and likely next)
//     query stay resident and pages of dropped terms leave first.
//
// The package exposes:
//
//   - collection generation (synthetic TREC-WSJ-like corpora with
//     topics and relevance judgments), or indexing of your own
//     documents through a tokenizer/stop-word/Porter-stemmer pipeline;
//   - an Index (frequency-sorted paged inverted file over a simulated
//     disk that counts page reads);
//   - Sessions, which pair an Index with a buffer pool of a chosen
//     size and replacement policy and evaluate queries with DF or BAF;
//   - Engines, which serve many users concurrently over one shared
//     buffer pool with context-aware cancellation, per-request
//     deadlines (optionally answered with anytime partial rankings)
//     and bounded-queue admission control;
//   - query-refinement workload construction (ADD-ONLY and ADD-DROP)
//     and retrieval-effectiveness metrics.
//
// # Quick start
//
//	col, _ := bufir.GenerateCollection(bufir.DefaultCollectionConfig(1))
//	ix, _ := bufir.NewIndex(col)
//	s, _ := ix.NewSession(bufir.SessionConfig{
//		EvalOptions: bufir.EvalOptions{Algorithm: bufir.BAF},
//		Policy:      bufir.RAP,
//		BufferPages: 200,
//	})
//	q, _ := ix.TopicQuery(col.Topics[0])
//	res, _ := s.Search(q)
//	for _, d := range res.Top {
//		fmt.Println(d.Doc, d.Score)
//	}
//
// See the Example functions (example_test.go) for runnable programs,
// cmd/irbench for the harness that regenerates every table and figure
// of the paper, and EXPERIMENTS.md for measured-versus-paper results.
package bufir
