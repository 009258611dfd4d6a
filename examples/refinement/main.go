// Refinement: reproduce the paper's core scenario on a synthetic
// WSJ-like collection — a user repeatedly refines a query by adding
// terms, and the choice of evaluation algorithm (DF vs BAF) decides
// how well the buffer pool is exploited.
//
// Run with:
//
//	go run ./examples/refinement
package main

import (
	"context"
	"fmt"
	"log"

	"bufir"
)

func main() {
	ctx := context.Background()
	// A small synthetic collection with planted topics and relevance
	// judgments (deterministic in the seed).
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(1998))
	if err != nil {
		log.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		log.Fatal(err)
	}

	// Build an ADD-ONLY refinement sequence for the first topic: terms
	// ranked by their contribution to the top-20 answer, added three
	// at a time — the paper's §5.1.2 workload.
	topic := col.Topics[0]
	query, err := ix.TopicQuery(topic)
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := ix.RankTermsByContribution(query)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := bufir.BuildRefinementSequence(topic.ID, bufir.AddOnly, ranked)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topic %d (%s): %d terms -> %d refinements\n\n",
		topic.ID, topic.Profile, len(ranked), len(seq.Refinements))

	// Run the same sequence under DF and BAF with a deliberately tight
	// buffer pool, so replacement pressure matters.
	const bufferPages = 96
	for _, algo := range []bufir.Algorithm{bufir.DF, bufir.BAF} {
		session, err := ix.NewSession(bufir.SessionConfig{
			EvalOptions: bufir.EvalOptions{Algorithm: algo},
			Policy:      bufir.LRU, // the file-system default the paper critiques
			BufferPages: bufferPages,
		})
		if err != nil {
			log.Fatal(err)
		}
		total := 0
		fmt.Printf("%s/LRU with %d buffer pages:\n", algo, bufferPages)
		for i, rq := range seq.Refinements {
			res, err := session.SearchContext(ctx, rq)
			if err != nil {
				log.Fatal(err)
			}
			total += res.PagesRead
			fmt.Printf("  refinement %2d (%2d terms): %4d disk reads\n",
				i+1, len(rq), res.PagesRead)
		}
		fmt.Printf("  total: %d disk reads\n\n", total)
	}

	fmt.Println("BAF processes buffer-resident lists first, so each refinement")
	fmt.Println("re-reads far less than DF under the same LRU pool.")

	// Incremental refinement goes one layer above buffer reuse: a DF
	// session carries the accumulator snapshot across ADD-ONLY steps,
	// so each resubmission replays the already-processed term rounds
	// for free and scans only the new lists — bit-identical to a cold
	// evaluation of the grown query.
	session, err := ix.NewSession(bufir.SessionConfig{
		Policy:      bufir.LRU,
		BufferPages: bufferPages,
	})
	if err != nil {
		log.Fatal(err)
	}
	ref, res, err := session.StartRefinement(ctx, seq.Refinements[0],
		bufir.RefineOptions{Incremental: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDF incremental session:\n")
	fmt.Printf("  refinement  1 (%2d terms): %4d disk reads\n",
		len(ref.Current()), res.PagesRead)
	for i := 1; i < len(seq.Refinements); i++ {
		// Each refinement grows the previous one; feed only the delta.
		added := seq.Refinements[i][len(seq.Refinements[i-1]):]
		res, err := ref.AddContext(ctx, added...)
		if err != nil {
			log.Fatal(err)
		}
		step := ref.History[len(ref.History)-1]
		fmt.Printf("  refinement %2d (%2d terms): %4d disk reads, %d rounds replayed from the snapshot\n",
			i+1, len(ref.Current()), res.PagesRead, step.ReusedRounds)
	}
	fmt.Printf("  total: %d disk reads\n", ref.TotalDiskReads())
}
