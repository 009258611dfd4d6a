// Command irsearch is an interactive ranked-retrieval shell with
// query refinement, running either over a synthetic collection or
// over a directory of plain-text files (see cmd/irindex for batch
// indexing). It surfaces the paper's buffering machinery live: every
// answer reports disk reads, buffer hits and the evaluation trace.
//
// Usage:
//
//	irsearch [-dir PATH | -index FILE] [-algo DF|BAF|MAXSCORE]
//	         [-policy LRU|MRU|RAP] [-buffers N]
//	         [-topn N] [-seed N] [-trace]
//
// Commands inside the shell:
//
//	<text>        search (on a text corpus) / space-separated terms;
//	              "double quotes" mark exact phrases on a -dir corpus
//	:stats        buffer-pool statistics
//	:flush        empty the buffer pool
//	:trace        toggle per-term trace output
//	:quit         exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"bufir"
	"bufir/internal/buffer"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irsearch: ")
	var (
		dir     = flag.String("dir", "", "index *.txt files from this directory (default: synthetic collection)")
		indexAt = flag.String("index", "", "open a persisted index file (see irindex -out)")
		algo    = flag.String("algo", "BAF", "evaluation algorithm: DF, BAF or MAXSCORE (MAXSCORE is exact: the unfiltered top-k)")
		policy  = flag.String("policy", "RAP", "replacement policy: "+strings.Join(buffer.PolicyNames, ", "))
		buffers = flag.Int("buffers", 256, "buffer pool size in pages")
		topn    = flag.Int("topn", 10, "answer size")
		seed    = flag.Int64("seed", 1, "seed for the synthetic collection")
		trace   = flag.Bool("trace", false, "print the per-term evaluation trace")
	)
	flag.Parse()

	a, err := bufir.ParseAlgorithm(*algo)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := buildIndex(*dir, *indexAt, *seed)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	session, err := ix.NewSession(bufir.SessionConfig{
		EvalOptions: bufir.EvalOptions{Algorithm: a, TopN: *topn},
		Policy:      bufir.Policy(strings.ToUpper(*policy)),
		BufferPages: *buffers,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("bufir %s/%s, %d buffer pages, %d docs, %d terms, %d pages\n",
		strings.ToUpper(*algo), strings.ToUpper(*policy), *buffers,
		ix.NumDocs(), ix.NumTerms(), ix.NumPages())
	fmt.Println(`type a query, or :stats / :flush / :trace / :quit`)

	in := bufio.NewScanner(os.Stdin)
	showTrace := *trace
	for {
		fmt.Print("> ")
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == ":quit" || line == ":q":
			return
		case line == ":flush":
			session.FlushBuffers()
			fmt.Println("buffers flushed")
			continue
		case line == ":trace":
			showTrace = !showTrace
			fmt.Printf("trace %v\n", showTrace)
			continue
		case line == ":stats":
			s := session.BufferStats()
			fmt.Printf("hits %d, misses %d, evictions %d, cumulative disk reads %d\n",
				s.Hits, s.Misses, s.Evictions, ix.DiskReads())
			continue
		}

		res, err := session.SearchTextContext(context.Background(), line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		for i, sd := range res.Top {
			fmt.Printf("%3d. %-30s %.4f\n", i+1, ix.DocName(sd.Doc), sd.Score)
		}
		fmt.Printf("[%d disk reads, %d pages processed, %d entries, %d accumulators]\n",
			res.PagesRead, res.PagesProcessed, res.EntriesProcessed, res.Accumulators)
		if showTrace {
			fmt.Println("term        idf    pages  Smax      fadd    proc  read")
			for _, tr := range res.Trace {
				fmt.Printf("%-10s %5.2f  %5d  %8.1f  %6.2f  %4d  %4d\n",
					tr.Name, tr.IDF, tr.ListPages, tr.SmaxBefore, tr.FAdd,
					tr.PagesProcessed, tr.PagesRead)
			}
		}
	}
}

// buildIndex opens a persisted index file (if indexAt is set),
// indexes a text corpus (if dir is set) or generates the synthetic
// collection.
func buildIndex(dir, indexAt string, seed int64) (*bufir.Index, error) {
	if indexAt != "" {
		return bufir.OpenIndexFile(indexAt)
	}
	if dir == "" {
		col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(seed))
		if err != nil {
			return nil, err
		}
		return bufir.NewIndex(col)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.txt files in %s", dir)
	}
	docs := make([]bufir.Document, 0, len(paths))
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		docs = append(docs, bufir.Document{Name: filepath.Base(p), Text: string(body)})
	}
	// Positional data enables double-quoted phrase queries in the
	// shell ("exact phrase" terms ...).
	return bufir.IndexDocuments(docs, bufir.IndexOptions{Positional: true})
}
