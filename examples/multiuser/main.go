// Multiuser: the paper's §3.3 future-work scenario — several users
// refining queries against one server. Compares giving each user a
// private buffer segment versus managing one shared pool with a
// global ranking-aware policy (users then benefit from pages cached
// for each other).
//
// Run with:
//
//	go run ./examples/multiuser
package main

import (
	"context"
	"fmt"
	"log"

	"bufir"
)

func main() {
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
