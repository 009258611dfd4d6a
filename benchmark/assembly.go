package main

import (
	"context"
	"fmt"
	"time"

	"bufir"
	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
	"bufir/internal/livedex"
	"bufir/internal/postings"
	"bufir/internal/shard"
	"bufir/internal/storage"
)

// partition is one index partition served the way an Engine worker
// serves it, but assembled here from exported constructors so that the
// two interface seams can be decorated:
//
//	store → tracedStore → buffer.NewShardedSharedPool → UserView →
//	tracedPool → eval.NewEvaluator → EvaluateContext
//
// It mirrors the root package's poolSource (one pool per published
// generation, cold by construction) and engine.worker (a user rebinds
// to the current generation before its next query).
type partition struct {
	algo     bufir.Algorithm
	params   eval.Params
	capacity int
	rec      *recorder

	// The current generation.
	gen   int
	pix   *postings.Index
	conv  *postings.ConversionTable
	store *tracedStore
	pool  *buffer.SharedPool
	users map[int]*userBinding

	// retired sums the counters of earlier generations' stores and
	// pools; the generations themselves are let go, as the Index lets
	// go of superseded views.
	retired struct {
		reads, evictions int64
		pinned           int
	}
}

type userBinding struct {
	gen  int
	view *buffer.UserView
	ev   *eval.Evaluator
}

func newPartition(w workloadSpec, rec *recorder) *partition {
	params := eval.TunedParams() // the engine's default filtering constants
	params.TopN = topN
	return &partition{algo: w.algo, params: params, capacity: w.bufferPages, rec: rec, users: map[int]*userBinding{}}
}

// publish makes (pix, store) the current generation: a fresh pool over
// the decorated store and a fresh conversion table.
func (p *partition) publish(pix *postings.Index, store buffer.PageReader, kind spanKind) error {
	newPolicy, err := buffer.PolicyFactory(string(bufir.RAP))
	if err != nil {
		return err
	}
	ts := &tracedStore{inner: store, rec: p.rec, kind: kind}
	pool, err := buffer.NewShardedSharedPool(p.capacity, poolShards, ts, pix, newPolicy)
	if err != nil {
		return err
	}
	if p.pool != nil {
		p.retired.reads += p.store.reads
		p.retired.evictions += p.pool.Manager().Stats().Evictions
		p.retired.pinned += p.pool.Manager().PinnedFrames()
	}
	p.gen++
	p.pix, p.conv = pix, postings.NewConversionTable(pix, postings.DefaultMaxKey)
	p.store, p.pool = ts, pool
	return nil
}

// search answers one query for user inside a request span.
func (p *partition) search(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	req := p.rec.begin(kindRequest)
	defer p.rec.end(req)
	ub := p.users[user]
	if ub == nil || ub.gen != p.gen {
		sp := p.rec.begin(kindRebind)
		view := p.pool.UserView(user)
		ev, err := eval.NewEvaluator(p.pix, &tracedPool{inner: view, rec: p.rec}, p.conv, p.params)
		if err != nil {
			p.rec.end(sp)
			return nil, err
		}
		if ub != nil {
			ub.view.Close()
		}
		ub = &userBinding{gen: p.gen, view: view, ev: ev}
		p.users[user] = ub
		p.rec.end(sp)
	}
	sp := p.rec.begin(kindEval)
	res, err := ub.ev.EvaluateContext(ctx, p.algo, q)
	p.rec.end(sp)
	return res, err
}

// close withdraws every user from the query registry.
func (p *partition) close() {
	for _, ub := range p.users {
		ub.view.Close()
	}
	p.users = map[int]*userBinding{}
}

// Counters over every generation, the current one included.
func (p *partition) storeReads() int64 { return p.retired.reads + p.store.reads }
func (p *partition) evictions() int64 {
	return p.retired.evictions + p.pool.Manager().Stats().Evictions
}
func (p *partition) pinnedFrames() int {
	return p.retired.pinned + p.pool.Manager().PinnedFrames()
}

// readAllPages materializes every page of a file store off the
// uncounted path, as Index.Shard and EnableLiveUpdates do.
func readAllPages(fs *storage.FileStore) ([][]postings.Entry, error) {
	pages := make([][]postings.Entry, fs.NumPages())
	for i := range pages {
		p, err := fs.ReadQuiet(postings.PageID(i))
		if err != nil {
			return nil, fmt.Errorf("materializing page %d: %w", i, err)
		}
		pages[i] = p
	}
	return pages, nil
}

// assembly is the traced twin of a deployment: one partition, or
// several behind a real Router.
type assembly struct {
	t0    time.Time
	top   *recorder // request spans of the router, sharded only
	parts []*partition
	// router fronts the partitions when there are several.
	router *bufir.Router
	// file is the opened index file, closed with the assembly.
	file *storage.FileStore
	// state is the live index state, nil on frozen workloads.
	state *livedex.State
	req   int32
}

// openAssembly builds the traced twin of workload w over the index
// file at path.
func openAssembly(w workloadSpec, path string) (*assembly, error) {
	a := &assembly{t0: time.Now()}
	fs, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
	if err != nil {
		return nil, err
	}
	pix := fs.File().Index
	switch {
	case w.shards > 1:
		defer fs.Close()
		pages, err := readAllPages(fs)
		if err != nil {
			return nil, err
		}
		split, err := shard.Split(pix, pages, w.shards)
		if err != nil {
			return nil, err
		}
		a.top = newRecorder(a.t0)
		backends := make([]bufir.Searcher, len(split))
		for i, sp := range split {
			part := newPartition(w, newRecorder(a.t0))
			if err := part.publish(sp.Index, storage.NewStore(sp.Pages), kindStoreRead); err != nil {
				return nil, err
			}
			a.parts = append(a.parts, part)
			backends[i] = shardSearcher{part}
		}
		if a.router, err = bufir.NewRouter(backends, bufir.RouterConfig{TopN: topN}); err != nil {
			return nil, err
		}
	default:
		a.file = fs
		part := newPartition(w, newRecorder(a.t0))
		if err := part.publish(pix, fs, kindStoreRead); err != nil {
			fs.Close()
			return nil, err
		}
		a.parts = []*partition{part}
		if w.live {
			pages, err := readAllPages(fs)
			if err != nil {
				fs.Close()
				return nil, err
			}
			if a.state, err = livedex.NewState(pix, fs, pages); err != nil {
				fs.Close()
				return nil, err
			}
		}
	}
	return a, nil
}

// record switches span recording on or off in every chain.
func (a *assembly) record(on bool) {
	if a.top != nil {
		a.top.on = on
	}
	for _, p := range a.parts {
		p.rec.on = on
	}
}

// search answers one query through the assembly.
func (a *assembly) search(ctx context.Context, s step) (*bufir.Result, error) {
	for _, p := range a.parts {
		p.rec.req = a.req
	}
	defer func() {
		if a.parts[0].rec.on {
			a.req++
		}
	}()
	if a.router == nil {
		return a.parts[0].search(ctx, s.user, s.q)
	}
	a.top.req = a.req
	sp := a.top.begin(kindRequest)
	res, err := a.router.SearchContext(ctx, s.user, s.q)
	a.top.end(sp)
	return res, err
}

// ingest mirrors Index.AddTerms on a live index: append to the delta,
// commit, publish the overlay generation.
func (a *assembly) ingest(ctx context.Context, d ingestDoc) (bufir.DocID, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	id, err := a.state.AddDoc(d.name, d.counts)
	if err != nil {
		return 0, err
	}
	c, err := a.state.Commit()
	if err != nil {
		return 0, err
	}
	ov := livedex.NewOverlay(c, a.state.MainIndex(), a.state.MainStore())
	return id, a.parts[0].publish(c.Meta, ov, kindOverlay)
}

// merge mirrors Index.Merge with in-memory generations
// (LiveOptions{}): compact the delta and publish the new main
// generation.
func (a *assembly) merge(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if a.state.DeltaDocs() == 0 && a.state.DeltaEntries() == 0 {
		return nil
	}
	c, err := a.state.Commit()
	if err != nil {
		return err
	}
	st := storage.NewStore(livedex.Pages(c))
	if err := a.state.ApplyMerge(c, st); err != nil {
		return err
	}
	return a.parts[0].publish(c.Meta, st, kindStoreRead)
}

// evictions sums the eviction counters of every pool of every
// generation.
func (a *assembly) evictions() int64 {
	var n int64
	for _, p := range a.parts {
		n += p.evictions()
	}
	return n
}

func (a *assembly) close() error {
	for _, p := range a.parts {
		p.close()
	}
	if a.file == nil {
		return nil
	}
	file := a.file
	a.file = nil
	return file.Close()
}

// shardSearcher lets a Router front a traced partition.
type shardSearcher struct{ part *partition }

func (s shardSearcher) SearchContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	return s.part.search(ctx, user, q)
}

func (s shardSearcher) RefineContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	return s.part.search(ctx, user, q)
}

func (s shardSearcher) Stats() bufir.EngineStats { return bufir.EngineStats{} }
func (s shardSearcher) Close() error             { return nil }
