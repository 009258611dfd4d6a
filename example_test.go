package bufir_test

import (
	"context"
	"fmt"
	"log"

	"bufir"
)

// Example demonstrates the core loop: generate a synthetic collection,
// index it, and run a topic query under BAF/RAP.
func Example() {
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		log.Fatal(err)
	}
	session, err := ix.NewSession(bufir.SessionConfig{
		EvalOptions: bufir.EvalOptions{Algorithm: bufir.BAF, TopN: 5},
		Policy:      bufir.RAP,
		BufferPages: 128,
	})
	if err != nil {
		log.Fatal(err)
	}
	query, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		log.Fatal(err)
	}
	res, err := session.Search(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("results: %d, disk reads > 0: %v\n", len(res.Top), res.PagesRead > 0)
	// Output:
	// results: 5, disk reads > 0: true
}

// ExampleIndexDocuments shows text indexing through the lexical
// pipeline with phrase support.
func ExampleIndexDocuments() {
	docs := []bufir.Document{
		{Name: "a", Text: "the central bank raised interest rates"},
		{Name: "b", Text: "interest in central banking grew; rates held"},
	}
	ix, err := bufir.IndexDocuments(docs, bufir.IndexOptions{
		NumStopWords: -1,
		Positional:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	s, err := ix.NewSession(bufir.SessionConfig{EvalOptions: bufir.EvalOptions{Unfiltered: true}})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.SearchTextContext(context.Background(), `"interest rates"`)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range res.Top {
		fmt.Println(ix.DocName(d.Doc))
	}
	// Output:
	// a
}

// ExampleIndex_RankTermsByContribution builds the paper's ADD-ONLY
// refinement workload for a topic.
func ExampleIndex_RankTermsByContribution() {
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		log.Fatal(err)
	}
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := ix.RankTermsByContribution(q)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := bufir.BuildRefinementSequence(col.Topics[0].ID, bufir.AddOnly, ranked)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refinements: %d, first has %d terms\n",
		len(seq.Refinements), len(seq.Refinements[0]))
	// Output:
	// refinements: 12, first has 3 terms
}
