// Proximity: the operators the paper defers to future work (§2.1,
// footnote 2) — exact phrases and NEAR queries over a positional
// index — plus persistence as a paged index file.
//
// Run with:
//
//	go run ./examples/proximity
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bufir"
)

func main() {
	docs := []bufir.Document{
		{Name: "fed-minutes", Text: `The central bank held interest rates
			steady. Officials debated whether interest in rate cuts was
			premature.`},
		{Name: "markets-close", Text: `Stock markets closed higher; bank
			shares rallied as rates on treasuries fell. Interest from
			foreign buyers lifted the close.`},
		{Name: "housing", Text: `Mortgage rates track the central bank's
			policy rate; housing interest cooled.`},
		{Name: "sports", Text: `The home team won in extra time; the
			crowd celebrated long into the night.`},
	}
	ix, err := bufir.IndexDocuments(docs, bufir.IndexOptions{
		NumStopWords: -1,
		Positional:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	session, err := ix.NewSession(bufir.SessionConfig{EvalOptions: bufir.EvalOptions{Unfiltered: true, TopN: 3}})
	if err != nil {
		log.Fatal(err)
	}

	// Loose ranked query: every document mentioning the terms scores.
	loose, err := session.SearchTextContext(context.Background(), `interest rates`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ranked 'interest rates':")
	for _, d := range loose.Top {
		fmt.Printf("  %-14s %.3f\n", ix.DocName(d.Doc), d.Score)
	}

	// Quoted phrase: only exact adjacency survives.
	strict, err := session.SearchTextContext(context.Background(), `"interest rates"`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(`phrase "interest rates":`)
	for _, d := range strict.Top {
		fmt.Printf("  %-14s %.3f\n", ix.DocName(d.Doc), d.Score)
	}

	// NEAR: central ... bank within 1 position.
	near, err := ix.NearDocs("central", "bank", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("NEAR(central, bank, 1): ")
	for _, d := range near {
		fmt.Printf("%s ", ix.DocName(d))
	}
	fmt.Println()

	// Persist and reload: text search keeps working.
	path := filepath.Join(os.TempDir(), "proximity-example.bufir")
	if err := ix.WriteFile(path, 0); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	loaded, err := bufir.OpenIndexFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer loaded.Close()
	s2, err := loaded.NewSession(bufir.SessionConfig{EvalOptions: bufir.EvalOptions{Unfiltered: true, TopN: 1}})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s2.SearchTextContext(context.Background(), "mortgage housing")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded index, 'mortgage housing' -> %s\n", loaded.DocName(res.Top[0].Doc))
	fmt.Println("(note: phrase operators need the in-memory positional data;")
	fmt.Println(" the persisted file carries the ranked index + pipeline state)")
}
