package bufir_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

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

// Quickstart: index a handful of documents through the full lexical
// pipeline (tokenizer, stop-words, Porter stemmer), then run a ranked
// natural-language query and inspect the execution statistics.
func Example_quickstart() {
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

	// Output:
	// indexed 5 documents, 72 terms, 72 pages of 64 entries
	//
	// query: "drastic price increases in American stockmarkets"
	//   1. wsj-870104   score 3.131
	//   2. wsj-910718   score 0.967
	//
	// disk reads: 6 pages, entries processed: 8, accumulators: 2
	// refined query disk reads: 1 pages (buffers were warm)
	// buffer pool: 6 hits, 7 misses, 0 evictions
}

// Refinement: reproduce the paper's core scenario on a synthetic
// WSJ-like collection — a user repeatedly refines a query by adding
// terms, and the choice of evaluation algorithm (DF vs BAF) decides
// how well the buffer pool is exploited.
func Example_refinement() {
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

	// The paper's loop, served: every refinement is a fresh evaluation
	// of the grown query, and what it shares with the previous one is
	// the pages the shared pool still holds. A 1-worker engine over a
	// pool with room for every page (RAP, the engine's default policy)
	// never evicts, so each resubmission reads only the pages its
	// earlier steps never touched. The engine takes the sessions'
	// filtering constants (the paper's WSJ tuning) so its reads compare
	// with the DF run above.
	eng, err := ix.NewEngine(bufir.EngineConfig{
		EvalOptions: bufir.EvalOptions{CAdd: 0.002, CIns: 0.07},
		Workers:     1,
		BufferPages: ix.NumPages(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Printf("\nDF engine, pool of all %d pages:\n", ix.NumPages())
	total := 0
	for i, rq := range seq.Refinements {
		res, err := eng.SearchContext(ctx, 0, rq)
		if err != nil {
			log.Fatal(err)
		}
		total += res.PagesRead
		fmt.Printf("  refinement %2d (%2d terms): %4d disk reads\n", i+1, len(rq), res.PagesRead)
	}
	fmt.Printf("  total: %d disk reads\n", total)

	// Output:
	// topic 1 (dominant): 36 terms -> 12 refinements
	//
	// DF/LRU with 96 buffer pages:
	//   refinement  1 ( 3 terms):    8 disk reads
	//   refinement  2 ( 6 terms):   13 disk reads
	//   refinement  3 ( 9 terms):    9 disk reads
	//   refinement  4 (12 terms):   10 disk reads
	//   refinement  5 (15 terms):    3 disk reads
	//   refinement  6 (18 terms):    9 disk reads
	//   refinement  7 (21 terms):    7 disk reads
	//   refinement  8 (24 terms):   14 disk reads
	//   refinement  9 (27 terms):   14 disk reads
	//   refinement 10 (30 terms):   27 disk reads
	//   refinement 11 (33 terms):  116 disk reads
	//   refinement 12 (36 terms):  128 disk reads
	//   total: 358 disk reads
	//
	// BAF/LRU with 96 buffer pages:
	//   refinement  1 ( 3 terms):    8 disk reads
	//   refinement  2 ( 6 terms):   13 disk reads
	//   refinement  3 ( 9 terms):    9 disk reads
	//   refinement  4 (12 terms):   10 disk reads
	//   refinement  5 (15 terms):    3 disk reads
	//   refinement  6 (18 terms):    9 disk reads
	//   refinement  7 (21 terms):    7 disk reads
	//   refinement  8 (24 terms):   14 disk reads
	//   refinement  9 (27 terms):   14 disk reads
	//   refinement 10 (30 terms):   14 disk reads
	//   refinement 11 (33 terms):   20 disk reads
	//   refinement 12 (36 terms):   57 disk reads
	//   total: 178 disk reads
	//
	// BAF processes buffer-resident lists first, so each refinement
	// re-reads far less than DF under the same LRU pool.
	//
	// DF engine, pool of all 5078 pages:
	//   refinement  1 ( 3 terms):    8 disk reads
	//   refinement  2 ( 6 terms):   13 disk reads
	//   refinement  3 ( 9 terms):    9 disk reads
	//   refinement  4 (12 terms):   10 disk reads
	//   refinement  5 (15 terms):    3 disk reads
	//   refinement  6 (18 terms):    9 disk reads
	//   refinement  7 (21 terms):    7 disk reads
	//   refinement  8 (24 terms):   14 disk reads
	//   refinement  9 (27 terms):   14 disk reads
	//   refinement 10 (30 terms):   14 disk reads
	//   refinement 11 (33 terms):   15 disk reads
	//   refinement 12 (36 terms):   12 disk reads
	//   total: 128 disk reads
}

// Policies: compare LRU, MRU and the paper's Ranking-Aware Policy
// (RAP) on an ADD-DROP refinement sequence — the workload where the
// differences are starkest: MRU is structurally unable to evict pages
// of dropped terms, while RAP values them at zero and drops them
// first (§5.3).
func Example_policies() {
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(42))
	if err != nil {
		log.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		log.Fatal(err)
	}

	topic := col.Topics[0]
	query, err := ix.TopicQuery(topic)
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := ix.RankTermsByContribution(query)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := bufir.BuildRefinementSequence(topic.ID, bufir.AddDrop, ranked)
	if err != nil {
		log.Fatal(err)
	}

	policies := []bufir.Policy{bufir.LRU, bufir.MRU, bufir.RAP}
	sizes := []int{24, 48, 96, 144, 192}

	fmt.Printf("ADD-DROP sequence for topic %d: total disk reads by policy (DF algorithm)\n\n", topic.ID)
	fmt.Printf("%8s", "buffers")
	for _, p := range policies {
		fmt.Printf("  %6s", p)
	}
	fmt.Println()
	for _, size := range sizes {
		fmt.Printf("%8d", size)
		for _, p := range policies {
			session, err := ix.NewSession(bufir.SessionConfig{
				EvalOptions: bufir.EvalOptions{Algorithm: bufir.DF},
				Policy:      p,
				BufferPages: size,
			})
			if err != nil {
				log.Fatal(err)
			}
			total := 0
			for _, rq := range seq.Refinements {
				res, err := session.Search(rq)
				if err != nil {
					log.Fatal(err)
				}
				total += res.PagesRead
			}
			fmt.Printf("  %6d", total)
		}
		fmt.Println()
	}

	fmt.Println("\nMRU keeps dropped terms' pages forever (the most recently used")
	fmt.Println("page is by definition not a stale one), while RAP assigns them")
	fmt.Println("replacement value 0 and evicts them first.")

	// Output:
	// ADD-DROP sequence for topic 1: total disk reads by policy (DF algorithm)
	//
	//  buffers     LRU     MRU     RAP
	//       24     573     479     402
	//       48     461     375     284
	//       96     240     192     149
	//      144     143     143     143
	//      192     143     143     143
	//
	// MRU keeps dropped terms' pages forever (the most recently used
	// page is by definition not a stale one), while RAP assigns them
	// replacement value 0 and evicts them first.
}

// Effectiveness: verify that the unsafe optimizations do not hurt
// answer quality. Compares non-interpolated average precision of
// exhaustive evaluation, DF and BAF against the collection's planted
// relevance judgments — the experiment behind the paper's claim that
// BAF stays within 5% of DF (§5.2).
func Example_effectiveness() {
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name       string
		algo       bufir.Algorithm
		unfiltered bool
	}
	variants := []variant{
		{"FULL (safe, exhaustive)", bufir.DF, true},
		{"DF   (filtered)", bufir.DF, false},
		{"BAF  (filtered, buffer-aware)", bufir.BAF, false},
	}

	fmt.Println("Mean average precision and disk reads across all topics:")
	fmt.Println()
	for _, v := range variants {
		var sumAP float64
		var reads int
		for ti, topic := range col.Topics {
			session, err := ix.NewSession(bufir.SessionConfig{
				EvalOptions: bufir.EvalOptions{Algorithm: v.algo, Unfiltered: v.unfiltered},
				Policy:      bufir.RAP,
				BufferPages: 256,
			})
			if err != nil {
				log.Fatal(err)
			}
			q, err := ix.TopicQuery(topic)
			if err != nil {
				log.Fatal(err)
			}
			res, err := session.Search(q)
			if err != nil {
				log.Fatal(err)
			}
			rel := bufir.NewRelevanceSet(topic.Relevant)
			sumAP += bufir.AveragePrecision(res.Top, rel)
			reads += res.PagesRead
			_ = ti
		}
		n := float64(len(col.Topics))
		fmt.Printf("  %-30s  mean AP %.4f   total disk reads %5d\n",
			v.name, sumAP/n, reads)
	}

	fmt.Println()
	fmt.Println("Filtering reads a fraction of the pages at essentially the same")
	fmt.Println("effectiveness — the trade the paper's unsafe optimizations make.")

	// Output:
	// Mean average precision and disk reads across all topics:
	//
	//   FULL (safe, exhaustive)         mean AP 0.4146   total disk reads  2269
	//   DF   (filtered)                 mean AP 0.4146   total disk reads  1375
	//   BAF  (filtered, buffer-aware)   mean AP 0.4146   total disk reads  1390
	//
	// Filtering reads a fraction of the pages at essentially the same
	// effectiveness — the trade the paper's unsafe optimizations make.
}

// Multiuser: the paper's §3.3 future-work scenario — several users
// refining queries against one server. Compares giving each user a
// private buffer segment versus managing one shared pool with a
// global ranking-aware policy (users then benefit from pages cached
// for each other).
func Example_multiuser() {
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(1998))
	if err != nil {
		log.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		log.Fatal(err)
	}

	// Four users; users 0/2 and 1/3 investigate the same topics, so
	// there is cross-user locality to exploit.
	userTopics := []int{0, 1, 0, 1}
	const totalPages = 200

	sequences := make([][]bufir.Query, len(userTopics))
	for u, ti := range userTopics {
		q, err := ix.TopicQuery(col.Topics[ti])
		if err != nil {
			log.Fatal(err)
		}
		ranked, err := ix.RankTermsByContribution(q)
		if err != nil {
			log.Fatal(err)
		}
		seq, err := bufir.BuildRefinementSequence(col.Topics[ti].ID, bufir.AddOnly, ranked)
		if err != nil {
			log.Fatal(err)
		}
		sequences[u] = seq.Refinements
	}
	rounds := 0
	for _, s := range sequences {
		if len(s) > rounds {
			rounds = len(s)
		}
	}

	// Configuration 1: segmented — each user gets totalPages/4 private
	// pages with RAP.
	ix.ResetDiskReads()
	privateSessions := make([]*bufir.Session, len(userTopics))
	for u := range privateSessions {
		s, err := ix.NewSession(bufir.SessionConfig{
			EvalOptions: bufir.EvalOptions{Algorithm: bufir.BAF},
			Policy:      bufir.RAP,
			BufferPages: totalPages / len(userTopics),
		})
		if err != nil {
			log.Fatal(err)
		}
		privateSessions[u] = s
	}
	runRounds(sequences, rounds, func(u int, q bufir.Query) error {
		_, err := privateSessions[u].Search(q)
		return err
	})
	segmented := ix.DiskReads()

	// Configuration 2: one shared pool of totalPages with global RAP,
	// served by a one-worker Engine (user u is the pool identity).
	ix.ResetDiskReads()
	eng, err := ix.NewEngine(bufir.EngineConfig{
		Workers:     1,
		BufferPages: totalPages,
		Policy:      bufir.RAP,
		EvalOptions: bufir.EvalOptions{Algorithm: bufir.BAF},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	runRounds(sequences, rounds, func(u int, q bufir.Query) error {
		_, err := eng.SearchContext(ctx, u, q)
		return err
	})
	shared := ix.DiskReads()

	fmt.Printf("4 users, %d total buffer pages, interleaved refinement rounds\n\n", totalPages)
	fmt.Printf("  segmented pools (4 x %d pages, RAP): %5d disk reads\n", totalPages/4, segmented)
	fmt.Printf("  one shared pool (%d pages, global RAP): %3d disk reads\n", totalPages, shared)
	fmt.Printf("\nshared saves %.0f%%: users working on the same topic reuse each\n",
		100*float64(segmented-shared)/float64(segmented))
	fmt.Println("other's pages, and the global registry keeps every active query's")
	fmt.Println("lists protected at once.")

	// Output:
	// 4 users, 200 total buffer pages, interleaved refinement rounds
	//
	//   segmented pools (4 x 50 pages, RAP):  1152 disk reads
	//   one shared pool (200 pages, global RAP): 158 disk reads
	//
	// shared saves 86%: users working on the same topic reuse each
	// other's pages, and the global registry keeps every active query's
	// lists protected at once.
}

// runRounds interleaves the users round-robin, as if they resubmit at
// the same cadence.
func runRounds(seqs [][]bufir.Query, rounds int, do func(u int, q bufir.Query) error) {
	for j := 0; j < rounds; j++ {
		for u, s := range seqs {
			if j < len(s) {
				if err := do(u, s[j]); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
}

// Proximity: the operators the paper defers to future work (§2.1,
// footnote 2) — exact phrases and NEAR queries over a positional
// index — plus persistence as a paged index file.
func Example_proximity() {
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

	// Persist and reload: text search keeps working.
	dir, err := os.MkdirTemp("", "proximity-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.bufir")
	if err := ix.WriteFile(path, 0); err != nil {
		log.Fatal(err)
	}
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

	// Output:
	// ranked 'interest rates':
	//   fed-minutes    0.116
	//   housing        0.110
	//   markets-close  0.042
	// phrase "interest rates":
	//   fed-minutes    0.116
	// reloaded index, 'mortgage housing' -> housing
	// (note: phrase operators need the in-memory positional data;
	//  the persisted file carries the ranked index + pipeline state)
}
