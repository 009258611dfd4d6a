// Command irserve is the HTTP serving tier over a bufir deployment:
// one process serving ranked retrieval from a single index or from an
// N-way document-partitioned index behind the scatter-gather router,
// with the engine's admission control and deadline policies applied
// per shard and the optional observability endpoint alongside.
//
// Usage:
//
//	irserve [-index PATH] [-addr :8080] [-shards N]
//	        [-workers N] [-buffers N] [-policy LRU|MRU|RAP]
//	        [-algo DF|BAF|MAXSCORE] [-topn N] [-maxqueue N]
//	        [-timeout DUR] [-shardtimeout DUR] [-obs ADDR]
//	        [-live] [-automerge N]
//
// -index takes everything bufir.Open does: "synth:SCALE[:SEED]" for a
// generated collection or a paged index file written by irindex -out.
// -shards N splits the index into N in-memory partitions, each behind
// its own engine and buffer pool.
//
// Endpoints:
//
//	GET  /search?q=TERMS[&user=N][&k=N]  ranked answer (JSON)
//	GET  /healthz                        liveness + shard count + epoch
//	GET  /stats                          serving counters + epoch (JSON)
//	POST /ingest                         add a document (requires -live);
//	                                     body {"name": "...", "text": "..."}
//	POST /merge                          compact the pending delta (requires -live)
//
// The deployment keeps per-user state for every user id it has
// served, so user ids run from 0 to 1023; a larger one gets 400.
//
// With -live the deployment accepts documents while serving: each
// POST /ingest tokenizes the body, appends it to the index's delta and
// publishes a new generation, so queries admitted after the response
// see the document. -automerge N compacts the delta into a new main
// generation in the background once it holds N documents; POST /merge
// forces compaction. Live updates serve one partition: -live with a
// sharded index exits at startup.
//
// With -obs ADDR the Prometheus /metrics and JSON /statusz endpoints
// (including per-shard gauges for a sharded deployment) are served on
// ADDR; they carry no authentication, so bind them to localhost or a
// private interface.
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"bufir"
	"bufir/internal/buffer"
	_ "bufir/obshttp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irserve: ")
	var (
		index        = flag.String("index", "synth:default", "index to serve: synth:SCALE[:SEED] or a paged index file")
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		shards       = flag.Int("shards", 0, "split a single index into N in-memory partitions (0 = as stored)")
		workers      = flag.Int("workers", 0, "worker goroutines per shard engine (0 = default)")
		buffers      = flag.Int("buffers", 256, "buffer pages per shard engine")
		policy       = flag.String("policy", "RAP", "replacement policy: "+strings.Join(buffer.PolicyNames, ", "))
		algo         = flag.String("algo", "BAF", "evaluation algorithm: DF, BAF or MAXSCORE (MAXSCORE is exact: the unfiltered top-k)")
		topn         = flag.Int("topn", 10, "answer size")
		maxQueue     = flag.Int("maxqueue", 0, "per-shard admission queue bound (0 = unbounded)")
		timeout      = flag.Duration("timeout", 0, "per-request deadline, 0 = none (expired requests return their anytime answer)")
		shardTimeout = flag.Duration("shardtimeout", 0, "per-shard budget inside a request, 0 = none")
		obsAddr      = flag.String("obs", "", "observability endpoint address (/metrics, /statusz); empty = off")
		live         = flag.Bool("live", false, "accept POST /ingest: serve queries while documents arrive")
		autoMerge    = flag.Int("automerge", 0, "with -live, background-merge the delta once it holds N documents (0 = manual /merge only)")
	)
	flag.Parse()

	a, err := bufir.ParseAlgorithm(*algo)
	if err != nil {
		log.Fatal(err)
	}

	svc, err := openService(serveConfig{
		index:        *index,
		shards:       *shards,
		workers:      *workers,
		buffers:      *buffers,
		policy:       bufir.Policy(strings.ToUpper(*policy)),
		algo:         a,
		topN:         *topn,
		maxQueue:     *maxQueue,
		timeout:      *timeout,
		shardTimeout: *shardTimeout,
		obsAddr:      *obsAddr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	if *live {
		if err := svc.EnableLiveUpdates(bufir.LiveOptions{AutoMergeDocs: *autoMerge}); err != nil {
			log.Fatal(err)
		}
	}

	log.Printf("serving %s (%d shard(s)) on %s", *index, svc.NumShards(), *addr)
	if svc.ObsAddr() != "" {
		log.Printf("observability on %s", svc.ObsAddr())
	}
	log.Fatal(http.ListenAndServe(*addr, newMux(svc)))
}

// serveConfig collects the deployment knobs of one irserve process.
type serveConfig struct {
	index        string
	shards       int
	workers      int
	buffers      int
	policy       bufir.Policy
	algo         bufir.Algorithm
	topN         int
	maxQueue     int
	timeout      time.Duration
	shardTimeout time.Duration
	obsAddr      string
}

// openService maps the flag set onto bufir.Open's options. Expired
// requests return their anytime partial answer rather than an error —
// the natural choice for a serving tier whose evaluators are anytime
// algorithms.
func openService(cfg serveConfig) (*bufir.Service, error) {
	opts := []bufir.Option{
		bufir.WithEngine(bufir.EngineConfig{
			EvalOptions:  bufir.EvalOptions{Algorithm: cfg.algo, TopN: cfg.topN},
			Workers:      cfg.workers,
			BufferPages:  cfg.buffers,
			Policy:       cfg.policy,
			MaxQueue:     cfg.maxQueue,
			QueryTimeout: cfg.timeout,
			OnDeadline:   bufir.PartialOnDeadline,
			Obs:          bufir.ObsOptions{Addr: cfg.obsAddr},
		}),
		bufir.WithRouter(bufir.RouterConfig{
			TopN:         cfg.topN,
			ShardTimeout: cfg.shardTimeout,
		}),
		bufir.WithShards(cfg.shards),
	}
	return bufir.Open(cfg.index, opts...)
}
