// Quickstart: index a handful of documents through the full lexical
// pipeline (tokenizer, stop-words, Porter stemmer), then run a ranked
// natural-language query and inspect the execution statistics.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"bufir"
)

func main() {
	docs := []bufir.Document{
		{Name: "wsj-870104", Text: `Drastic price increases rattled American
			stockmarkets today. Investors dumped holdings as prices kept
			increasing drastically across every major stockmarket index.`},
		{Name: "wsj-880612", Text: `Satellite launch contracts were awarded to
			two aerospace firms; the contracts cover four launches over
			three years.`},
		{Name: "wsj-891023", Text: `Health hazards from fine-diameter fibers
			worry regulators. Fibers such as asbestos have documented
			hazards for workers' health.`},
		{Name: "wsj-900305", Text: `Computer-aided medical diagnosis systems
			help doctors diagnose rare conditions. The computer compares
			symptoms against thousands of cases.`},
		{Name: "wsj-910718", Text: `The central bank held interest rates
			steady; markets had priced in an increase and stock prices
			slipped on the news.`},
	}

	// Index through the paper's pipeline: non-words removed, the most
	// frequent raw terms dropped as stop-words, everything else
	// Porter-stemmed, and the inverted lists frequency-sorted into
	// fixed-size pages.
	ix, err := bufir.IndexDocuments(docs, bufir.IndexOptions{
		PageSize:     64,
		NumStopWords: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d documents, %d terms, %d pages of %d entries\n\n",
		ix.NumDocs(), ix.NumTerms(), ix.NumPages(), ix.PageSize())

	// A session pairs the index with a buffer pool and an evaluation
	// algorithm. BAF + RAP is the paper's best combination.
	session, err := ix.NewSession(bufir.SessionConfig{
		EvalOptions: bufir.EvalOptions{
			Algorithm:  bufir.BAF,
			TopN:       3,
			Unfiltered: true, // tiny corpus: no need for unsafe filtering
		},
		Policy:      bufir.RAP,
		BufferPages: 32,
	})
	if err != nil {
		log.Fatal(err)
	}

	query := "drastic price increases in American stockmarkets"
	res, err := session.SearchTextContext(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query: %q\n", query)
	for rankPos, sd := range res.Top {
		fmt.Printf("  %d. %-12s score %.3f\n", rankPos+1, ix.DocName(sd.Doc), sd.Score)
	}
	fmt.Printf("\ndisk reads: %d pages, entries processed: %d, accumulators: %d\n",
		res.PagesRead, res.EntriesProcessed, res.Accumulators)

	// A refined query reuses buffered pages: note the drop in reads.
	res2, err := session.SearchTextContext(context.Background(), query+" investors")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refined query disk reads: %d pages (buffers were warm)\n", res2.PagesRead)
	stats := session.BufferStats()
	fmt.Printf("buffer pool: %d hits, %d misses, %d evictions\n",
		stats.Hits, stats.Misses, stats.Evictions)
}
