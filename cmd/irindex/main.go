// Command irindex builds the paper's inverted index from a directory
// of plain-text files and reports its physical statistics: vocabulary
// size, stop-words, page counts by band, and conversion-table size —
// the numbers §4.2 and Table 4 report for the WSJ collection.
//
// Usage:
//
//	irindex -dir PATH [-page N] [-stop N] [-glob PATTERN] [-out FILE]
//	        [-shards N]
//
// With -out the built index is persisted to FILE as a paged index
// file; cmd/irsearch and cmd/irserve open it with -index FILE. With
// -out and -shards N the index is instead written as an N-way
// document-partitioned shard directory at OUT (one paged shard file
// per partition); cmd/irserve serves it behind the scatter-gather
// router with -index OUT.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"bufir"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irindex: ")
	var (
		dir    = flag.String("dir", "", "directory of text files (required)")
		page   = flag.Int("page", 0, "page size in entries (0 = paper default 404)")
		stop   = flag.Int("stop", 0, "stop-word count (0 = paper default 100, negative disables)")
		glob   = flag.String("glob", "*.txt", "file glob within the directory")
		out    = flag.String("out", "", "persist the index to this file (a directory with -shards)")
		shards = flag.Int("shards", 0, "with -out: write an N-way document-partitioned shard directory")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	paths, err := filepath.Glob(filepath.Join(*dir, *glob))
	if err != nil {
		log.Fatal(err)
	}
	if len(paths) == 0 {
		log.Fatalf("no files match %s in %s", *glob, *dir)
	}
	sort.Strings(paths)
	docs := make([]bufir.Document, 0, len(paths))
	var bytes int64
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			log.Fatal(err)
		}
		bytes += int64(len(body))
		docs = append(docs, bufir.Document{Name: filepath.Base(p), Text: string(body)})
	}

	ix, err := bufir.IndexDocuments(docs, bufir.IndexOptions{
		PageSize:     *page,
		NumStopWords: *stop,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("indexed %d documents (%.1f KB raw text)\n", ix.NumDocs(), float64(bytes)/1024)
	fmt.Printf("vocabulary: %d terms after stop-word removal and stemming\n", ix.NumTerms())
	fmt.Printf("inverted file: %d pages of %d entries\n", ix.NumPages(), ix.PageSize())

	// List-length histogram in the style of Table 4.
	buckets := []struct {
		label    string
		min, max int
	}{
		{"1 page", 1, 1},
		{"2-10 pages", 2, 10},
		{"11-50 pages", 11, 50},
		{"51+ pages", 51, 1 << 30},
	}
	counts := make([]int, len(buckets))
	multi := 0
	for t := 0; t < ix.NumTerms(); t++ {
		p := ix.TermPages(bufir.TermID(t))
		if p > 1 {
			multi++
		}
		for bi, b := range buckets {
			if p >= b.min && p <= b.max {
				counts[bi]++
			}
		}
	}
	fmt.Println("\nlist-length histogram:")
	for bi, b := range buckets {
		fmt.Printf("  %-12s %7d terms\n", b.label, counts[bi])
	}
	fmt.Printf("multi-page terms: %d (%.1f%%)\n", multi, 100*float64(multi)/float64(ix.NumTerms()))

	switch {
	case *out != "" && *shards > 1:
		if err := ix.WriteShardFiles(*out, *shards); err != nil {
			log.Fatal(err)
		}
		var size int64
		entries, err := os.ReadDir(*out)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				size += info.Size()
			}
		}
		fmt.Printf("\nindex saved to %s as %d shard files (%.1f KB on disk)\n", *out, *shards, float64(size)/1024)
	case *out != "":
		if err := ix.WriteFile(*out, 0); err != nil {
			log.Fatal(err)
		}
		info, err := os.Stat(*out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nindex saved to %s (%.1f KB on disk)\n", *out, float64(info.Size())/1024)
	}
}
