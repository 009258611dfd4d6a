package main

import (
	"context"

	"bufir/internal/buffer"
	"bufir/internal/postings"
)

// tracedStore decorates the store seam (buffer.PageReader, the read
// half of storage.PageStore): one span per read, and the id of every
// delivered page kept for the replays.
type tracedStore struct {
	inner buffer.PageReader
	rec   *recorder
	kind  spanKind // kindStoreRead, or kindOverlay for a live overlay

	// Recording only (rec.on).
	reads int64
	pages []postings.PageID
}

func (s *tracedStore) Read(id postings.PageID) ([]postings.Entry, error) {
	return s.ReadContext(context.Background(), id)
}

func (s *tracedStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	sp := s.rec.begin(s.kind)
	entries, err := s.inner.ReadContext(ctx, id)
	s.rec.end(sp)
	if err == nil && s.rec.on {
		s.reads++
		s.pages = append(s.pages, id)
	}
	return entries, err
}

// tracedPool decorates the pool seam (buffer.Pool) between an
// evaluator and its user's view of the shared pool.
type tracedPool struct {
	inner buffer.Pool
	rec   *recorder
}

var _ buffer.Pool = (*tracedPool)(nil)

func (p *tracedPool) Fetch(id postings.PageID) (*buffer.Frame, bool, error) {
	return p.FetchContext(context.Background(), id)
}

func (p *tracedPool) FetchContext(ctx context.Context, id postings.PageID) (*buffer.Frame, bool, error) {
	sp := p.rec.begin(kindFetchHit)
	f, miss, err := p.inner.FetchContext(ctx, id)
	if miss {
		p.rec.endAs(sp, kindFetchMiss)
	} else {
		p.rec.end(sp)
	}
	return f, miss, err
}

func (p *tracedPool) Unpin(f *buffer.Frame) {
	if !p.rec.on || !p.rec.countLight(lightUnpin) {
		p.inner.Unpin(f)
		return
	}
	t0 := p.rec.now()
	p.inner.Unpin(f)
	p.rec.timeLight(lightUnpin, t0)
}

func (p *tracedPool) ResidentPages(t postings.TermID) int {
	if !p.rec.on || !p.rec.countLight(lightResident) {
		return p.inner.ResidentPages(t)
	}
	t0 := p.rec.now()
	n := p.inner.ResidentPages(t)
	p.rec.timeLight(lightResident, t0)
	return n
}

func (p *tracedPool) SetQuery(w buffer.QueryWeights) {
	sp := p.rec.begin(kindSetQuery)
	p.inner.SetQuery(w)
	p.rec.end(sp)
}

func (p *tracedPool) Stats() buffer.Stats { return p.inner.Stats() }
