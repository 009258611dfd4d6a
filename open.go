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
	shards int
	engine EngineConfig
	router RouterConfig
}

// WithShards asks Open for an n-way document-partitioned deployment.
// Opening a single index (in-memory or an index file) with n ≥ 2
// splits it into n partitions in memory, each behind its own engine
// and buffer pool. Opening a shard directory with n ≥ 1 requires its
// partition count to be n. 0, the default, accepts whatever the
// directory holds and means 1 for single-index paths; a negative n is
// an error.
func WithShards(n int) Option {
	return func(o *openOptions) { o.shards = n }
}

// WithEngine sets the per-shard engine configuration: workers, buffer
// pages, policy, admission control, deadline policy, fault tolerance
// and refinement reuse all apply to each partition's engine. Obs is
// the exception: it starts one endpoint for the whole deployment, not
// one per partition (see ObsOptions).
func WithEngine(cfg EngineConfig) Option {
	return func(o *openOptions) { o.engine = cfg }
}

// WithRouter sets the scatter-gather configuration (merged result
// size, per-shard deadline budget, failed-shard tolerance). Ignored
// for single-partition deployments, where there is nothing to route.
func WithRouter(cfg RouterConfig) Option {
	return func(o *openOptions) { o.router = cfg }
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
//   - a paged index file written by Index.WriteFile (BUFIR3), served
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
	if shards < 0 {
		return nil, fmt.Errorf("bufir: WithShards(%d): the partition count cannot be negative", shards)
	}
	var ix *Index
	var err error
	if strings.HasPrefix(path, "synth:") {
		ix, err = openSynth(path)
	} else {
		st, serr := os.Stat(path)
		if serr != nil {
			return nil, serr
		}
		if st.IsDir() {
			return openShardDir(path, shards)
		}
		ix, err = openOne(path)
	}
	if err != nil {
		return nil, err
	}
	if shards <= 1 {
		return []*Index{ix}, nil
	}
	parts, err := ix.Shard(shards)
	// The partitions hold copies of the source's pages, so a
	// file-backed source is closed once they are materialized (or
	// failed to be).
	_ = ix.Close()
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// openShardDir opens every shard file of a directory written by
// WriteShardFiles; a positive shards must equal their count.
func openShardDir(dir string, shards int) ([]*Index, error) {
	files, err := indexfile.ShardFiles(dir)
	if err != nil {
		return nil, err
	}
	if shards > 0 && shards != len(files) {
		return nil, fmt.Errorf("bufir: WithShards(%d) but %s holds %d partitions", shards, dir, len(files))
	}
	indexes := make([]*Index, 0, len(files))
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
// on-disk index: directory dir gets n paged (BUFIR3) shard files named
// by indexfile.ShardFileName, each a self-contained index over one
// partition's postings with the global collection statistics.
// Open(dir) serves them behind a scatter-gather router.
func (ix *Index) WriteShardFiles(dir string, n int) error {
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
		if err := indexfile.WritePageFile(dir+string(os.PathSeparator)+name, p.Index, p.Pages, aux); err != nil {
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
	front    Searcher
	obs      metrics.HTTPServer // nil unless EngineConfig.Obs.Addr is set
	closeErr error
	once     sync.Once
}

// newService builds the serving tier over the resolved indexes.
func newService(indexes []*Index, o openOptions) (*Service, error) {
	cfg := o.engine
	cfg.Obs = ObsOptions{} // one endpoint per deployment, started below
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
	if addr := o.engine.Obs.Addr; addr != "" {
		var src metrics.Source = svc.engines[0].inner
		if r, ok := svc.front.(*Router); ok {
			src = r
		}
		srv, err := metrics.StartHTTPServer(addr, src)
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

// liveIndex returns the index of a single-partition deployment, the
// only kind that takes live updates: every partition of a sharded one
// carries the global vocabulary, statistics and TermIDs, which no
// per-partition commit can keep.
func (s *Service) liveIndex() (*Index, error) {
	if len(s.indexes) > 1 {
		return nil, fmt.Errorf("bufir: live updates serve a single partition; this deployment has %d", len(s.indexes))
	}
	return s.indexes[0], nil
}

// EnableLiveUpdates turns the deployment's index mutable (see
// Index.EnableLiveUpdates), after which IngestContext accepts
// documents. Live updates serve one partition: a sharded deployment
// refuses them with an error.
func (s *Service) EnableLiveUpdates(opts LiveOptions) error {
	ix, err := s.liveIndex()
	if err != nil {
		return err
	}
	return ix.EnableLiveUpdates(opts)
}

// IngestContext adds one document to the deployment's index (see
// Index.Add), publishing a new generation. Requires EnableLiveUpdates
// first. In-flight queries finish on the generation they started on;
// every engine user rebinds — fresh pool, fresh evaluator — before its
// next request, so no query ever mixes generations. An already-dead
// ctx refuses before any work; ingestion itself is synchronous and not
// cancelable mid-commit (commits publish entirely or not at all).
func (s *Service) IngestContext(ctx context.Context, doc Document) (DocID, error) {
	ix, err := s.liveIndex()
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return ix.Add(doc.Name, doc.Text)
}

// MergeContext compacts the index's pending delta into a new main
// generation (see Index.Merge; a no-op when nothing is pending).
// Queries keep flowing throughout; concurrent ingestion waits for the
// merge. An already-dead ctx refuses before any work. Called with
// context.Background() it is the way to end a merge storm
// deterministically in tests and benchmarks.
func (s *Service) MergeContext(ctx context.Context) error {
	ix, err := s.liveIndex()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ix.Merge()
}

// Epoch reports the deployment's index generation number, the
// maximum over its partition engines.
func (s *Service) Epoch() uint64 {
	var epoch uint64
	for _, e := range s.engines {
		epoch = max(epoch, e.Epoch())
	}
	return epoch
}

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

// ObsAddr returns the observability endpoint's bound address, or ""
// when EngineConfig.Obs.Addr was empty.
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
