package bufir

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"bufir/internal/indexfile"
	"bufir/internal/metrics"
	"bufir/internal/shard"
	"bufir/internal/storage"
)

// Option configures Open.
type Option func(*openOptions)

type openOptions struct {
	shards  int
	engine  EngineConfig
	router  RouterConfig
	obsAddr string
}

// WithShards asks Open for an n-way document-partitioned deployment.
// Opening a single index (in-memory or an index file) splits it
// into n partitions in memory, each behind its own engine and buffer
// pool; opening a shard directory requires its partition count to be n
// (0, the default, accepts whatever the directory holds — and means 1
// for single-index paths).
func WithShards(n int) Option {
	return func(o *openOptions) { o.shards = n }
}

// WithEngine sets the per-shard engine configuration: workers, buffer
// pages, policy, admission control, deadline policy, fault tolerance
// and refinement reuse all apply to each partition's engine. The
// engine-level Obs option is ignored — observability for a deployment
// is configured once, with WithObs.
func WithEngine(cfg EngineConfig) Option {
	return func(o *openOptions) { o.engine = cfg }
}

// WithRouter sets the scatter-gather configuration (merged result
// size, per-shard deadline budget, failed-shard tolerance). Ignored
// for single-partition deployments, where there is nothing to route.
func WithRouter(cfg RouterConfig) Option {
	return func(o *openOptions) { o.router = cfg }
}

// WithObs starts the HTTP observability endpoint on addr (":0" picks a
// free port — read it back with Service.ObsAddr). For a sharded
// deployment the endpoint serves the router's aggregated snapshot with
// per-shard gauges; for a single partition, the engine's. Requires a
// blank import of bufir/obshttp, like ObsOptions.Addr.
func WithObs(addr string) Option {
	return func(o *openOptions) { o.obsAddr = addr }
}

// Open is the single entry point to a serving deployment: it resolves
// path to one or more indexes, builds an engine per partition, fronts
// them with a scatter-gather router when there is more than one, and
// returns a Service — a Searcher that owns everything it opened.
//
// path takes three forms:
//
//   - "synth:SCALE[:SEED]" — a generated synthetic collection; SCALE
//     is tiny, default or paper, SEED an optional integer (default
//     1998). No files are touched.
//   - a paged index file written by Index.WriteFile (BUFIR2), served
//     page-at-a-time from disk.
//   - a directory of shard files written by Index.WriteShardFiles —
//     an on-disk document-partitioned index, one engine per shard.
//
// Open replaces the historical construction paths (OpenIndexFile /
// NewEngine by hand) for serving use; those remain for code that wants
// the index itself.
func Open(path string, options ...Option) (*Service, error) {
	var o openOptions
	for _, opt := range options {
		opt(&o)
	}
	indexes, err := resolveIndexes(path, o.shards)
	if err != nil {
		return nil, err
	}
	svc, err := newService(indexes, o)
	if err != nil {
		for _, ix := range indexes {
			_ = ix.Close()
		}
		return nil, err
	}
	return svc, nil
}

// resolveIndexes turns an Open path into the deployment's indexes, one
// per partition.
func resolveIndexes(path string, shards int) ([]*Index, error) {
	var indexes []*Index
	switch {
	case strings.HasPrefix(path, "synth:"):
		ix, err := openSynth(path)
		if err != nil {
			return nil, err
		}
		indexes = []*Index{ix}
	default:
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if st.IsDir() {
			files, err := indexfile.ShardFiles(path)
			if err != nil {
				return nil, err
			}
			for _, f := range files {
				ix, err := openOne(f)
				if err != nil {
					for _, open := range indexes {
						_ = open.Close()
					}
					return nil, err
				}
				indexes = append(indexes, ix)
			}
		} else {
			ix, err := openOne(path)
			if err != nil {
				return nil, err
			}
			indexes = []*Index{ix}
		}
	}
	if shards > 1 {
		if len(indexes) == 1 {
			parts, err := indexes[0].Shard(shards)
			if err != nil {
				_ = indexes[0].Close()
				return nil, err
			}
			// The source index owned no file (or its partitions copy its
			// pages into memory) — but a file-backed source must stay
			// open only through the partitions, which hold copies. Close
			// the original now that its pages are materialized.
			_ = indexes[0].Close()
			indexes = parts
		} else if len(indexes) != shards {
			for _, ix := range indexes {
				_ = ix.Close()
			}
			return nil, fmt.Errorf("bufir: WithShards(%d) but %s holds %d partitions", shards, path, len(indexes))
		}
	}
	return indexes, nil
}

// openSynth builds an in-memory index over a generated synthetic
// collection from a "synth:SCALE[:SEED]" spec.
func openSynth(spec string) (*Index, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("bufir: bad synthetic index spec %q (want synth:SCALE[:SEED])", spec)
	}
	seed := int64(1998)
	if len(parts) == 3 {
		s, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bufir: bad seed in %q: %w", spec, err)
		}
		seed = s
	}
	var cfg CollectionConfig
	switch parts[1] {
	case "tiny":
		cfg = TinyCollectionConfig(seed)
	case "default":
		cfg = DefaultCollectionConfig(seed)
	case "paper":
		cfg = PaperCollectionConfig(seed)
	default:
		return nil, fmt.Errorf("bufir: unknown synthetic scale %q (want tiny, default or paper)", parts[1])
	}
	col, err := GenerateCollection(cfg)
	if err != nil {
		return nil, err
	}
	return NewIndex(col)
}

// openOne opens one paged index file.
func openOne(path string) (*Index, error) {
	ix, err := OpenIndexFile(path)
	if errors.Is(err, indexfile.ErrNotIndexFile) {
		return nil, fmt.Errorf("bufir: %s is not a bufir index file", path)
	}
	return ix, err
}

// Shard splits the index into n in-memory document partitions, each a
// self-contained Index over its documents' postings with the global
// collection statistics (see internal/shard: global statistics are
// what make merged per-shard scores bit-identical to single-index
// ones). The partitions share the source's auxiliary data (document
// names, text pipeline), so they parse queries identically. n == 1
// returns a single partition that reproduces the source exactly.
func (ix *Index) Shard(n int) ([]*Index, error) {
	pages, err := ix.pagePayloads()
	if err != nil {
		return nil, err
	}
	parts, err := shard.Split(ix.meta(), pages, n)
	if err != nil {
		return nil, err
	}
	names := ix.view().docNames
	out := make([]*Index, n)
	for i, p := range parts {
		s := newStaticIndex(p.Index, storage.NewStore(p.Pages), p.Pages, names)
		s.stopWords = ix.stopWords
		s.pipe = ix.pipe
		s.positional = ix.positional
		out[i] = s
	}
	return out, nil
}

// WriteShardFiles persists the index as an n-way document-partitioned
// on-disk index: directory dir gets n paged (BUFIR2) shard files named
// by indexfile.ShardFileName, each a self-contained index over one
// partition's postings with the global collection statistics.
// Open(dir) serves them behind a scatter-gather router. blockSize is
// the per-file disk-block alignment (0 = the 4 KiB default).
func (ix *Index) WriteShardFiles(dir string, n, blockSize int) error {
	if blockSize == 0 {
		blockSize = indexfile.DefaultBlockSize
	}
	pages, err := ix.pagePayloads()
	if err != nil {
		return err
	}
	parts, err := shard.Split(ix.meta(), pages, n)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	aux := ix.aux()
	for i, p := range parts {
		name := indexfile.ShardFileName(i, n)
		if err := indexfile.WritePageFile(dir+string(os.PathSeparator)+name, p.Index, p.Pages, aux, blockSize); err != nil {
			return fmt.Errorf("bufir: writing shard %d: %w", i, err)
		}
	}
	return nil
}

// Service is an open serving deployment: the indexes Open resolved,
// one engine per partition, and — for more than one partition — the
// scatter-gather router fronting them. Service implements Searcher;
// code written against the interface runs unchanged over a single
// engine or a 16-shard deployment.
type Service struct {
	indexes []*Index
	engines []*Engine
	// front serves every request: the Router, or the single Engine.
	front interface {
		Searcher
		Ingester
	}
	obs      metrics.HTTPServer // nil unless WithObs
	closeErr error
	once     sync.Once
}

// newService builds the serving tier over the resolved indexes.
func newService(indexes []*Index, o openOptions) (*Service, error) {
	cfg := o.engine
	cfg.Obs = ObsOptions{} // deployment-level observability only
	svc := &Service{indexes: indexes}
	for _, ix := range indexes {
		eng, err := ix.NewEngine(cfg)
		if err != nil {
			for _, e := range svc.engines {
				_ = e.Close()
			}
			return nil, err
		}
		svc.engines = append(svc.engines, eng)
	}
	if len(svc.engines) == 1 {
		svc.front = svc.engines[0]
	} else {
		backends := make([]Searcher, len(svc.engines))
		for i, e := range svc.engines {
			backends[i] = e
		}
		rcfg := o.router
		if rcfg.TopN == 0 {
			rcfg.TopN = o.engine.TopN
		}
		r, err := NewRouter(backends, rcfg)
		if err != nil {
			for _, e := range svc.engines {
				_ = e.Close()
			}
			return nil, err
		}
		svc.front = r
	}
	if o.obsAddr != "" {
		var src metrics.Source = svc.engines[0].inner
		if r, ok := svc.front.(*Router); ok {
			src = r
		}
		srv, err := metrics.StartHTTPServer(o.obsAddr, src)
		if err != nil {
			_ = svc.closeServing()
			return nil, err
		}
		svc.obs = srv
	}
	return svc, nil
}

// SearchContext executes one request through the deployment (see
// Searcher; routed with scatter-gather when sharded).
func (s *Service) SearchContext(ctx context.Context, user int, q Query) (*Result, error) {
	return s.front.SearchContext(ctx, user, q)
}

// EnableLiveUpdates turns every partition index mutable (see
// Index.EnableLiveUpdates), after which IngestContext accepts
// documents. For a sharded deployment each partition ingests, commits
// and merges independently; opts applies to every partition
// (LiveOptions.Dir, when set, receives every shard's generation files
// — their names embed per-shard epochs and do not collide while
// epochs differ, so prefer per-shard directories or in-memory
// generations for sharded deployments).
func (s *Service) EnableLiveUpdates(opts LiveOptions) error {
	var errs []error
	for i, ix := range s.indexes {
		if err := ix.EnableLiveUpdates(opts); err != nil {
			errs = append(errs, fmt.Errorf("bufir: enabling live updates on shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// IngestContext adds one document to the deployment: routed to its
// owning shard by name hash when sharded, straight to the single
// engine otherwise. Requires EnableLiveUpdates first.
func (s *Service) IngestContext(ctx context.Context, doc Document) (DocID, error) {
	return s.front.IngestContext(ctx, doc)
}

// MergeContext merges every partition's pending delta (see
// Ingester.MergeContext). Called with context.Background() it is the
// way to end a merge storm deterministically in tests and benchmarks.
func (s *Service) MergeContext(ctx context.Context) error {
	return s.front.MergeContext(ctx)
}

// Epoch reports the deployment's generation number (the maximum
// across partitions when sharded; partitions drift independently).
func (s *Service) Epoch() uint64 { return s.front.Epoch() }

// Stats returns the deployment's serving counters: the router's for a
// sharded deployment (each routed request counted once), the engine's
// otherwise.
func (s *Service) Stats() EngineStats { return s.front.Stats() }

// ShardStats returns each partition engine's own counters, in shard
// order (one entry for a single-partition deployment).
func (s *Service) ShardStats() []EngineStats {
	out := make([]EngineStats, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Stats()
	}
	return out
}

// NumShards returns the number of document partitions being served.
func (s *Service) NumShards() int { return len(s.engines) }

// Index returns the first partition's index — the right handle for
// vocabulary operations (LookupTerm, TermName, ParseQuery): every
// partition carries the full vocabulary and the global statistics.
func (s *Service) Index() *Index { return s.indexes[0] }

// Query turns free text into a Query against the deployment's
// vocabulary: through the index's lexical pipeline when it has one
// (document-built indexes), by whitespace-splitting and term lookup
// otherwise (synthetic collections, whose terms are flat tokens).
// Unknown terms are dropped; a query with no known terms errors.
func (s *Service) Query(text string) (Query, error) {
	ix := s.Index()
	if ix.pipe != nil {
		return ix.ParseQuery(text)
	}
	counts := make(map[TermID]int)
	for _, f := range strings.Fields(text) {
		if id, ok := ix.LookupTerm(f); ok {
			counts[id]++
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("bufir: no indexed terms in query %q", text)
	}
	q := make(Query, 0, len(counts))
	for id, f := range counts {
		q = append(q, QueryTerm{Term: id, Fqt: f})
	}
	sortQuery(q)
	return q, nil
}

// ObsAddr returns the observability endpoint's bound address, or ""
// when WithObs was not used.
func (s *Service) ObsAddr() string {
	if s.obs == nil {
		return ""
	}
	return s.obs.Addr()
}

// closeServing tears down the serving tier (a Router closes every
// engine behind it) and the opened indexes, joining errors.
func (s *Service) closeServing() error {
	var errs []error
	if err := s.front.Close(); err != nil {
		errs = append(errs, err)
	}
	for _, ix := range s.indexes {
		if err := ix.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close drains and stops every partition engine, shuts the
// observability endpoint down, and closes the opened indexes.
// Idempotent.
func (s *Service) Close() error {
	s.once.Do(func() {
		var errs []error
		if err := s.closeServing(); err != nil {
			errs = append(errs, err)
		}
		if s.obs != nil {
			if err := s.obs.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}
