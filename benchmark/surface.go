package main

import (
	"context"
	"fmt"
	"time"

	"bufir"
)

// engineSurface times one public Engine from outside: a request's
// client-observed span against the service time its Ticket reports.
// The difference is the hand-off — queueing, wake-ups, the ticket
// round trip. It implements Searcher, so a real Router can front it.
type engineSurface struct {
	eng *bufir.Engine
	t0  time.Time
	on  bool
	// One entry per recorded request, in request order: the span (as
	// nanoseconds since t0) and the ticket's service time.
	spans     []interval
	serviceNs []int64
}

var _ bufir.Searcher = (*engineSurface)(nil)

func (e *engineSurface) SearchContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	t0 := time.Now()
	tk, err := e.eng.SubmitContext(ctx, user, q)
	if err != nil {
		return nil, err
	}
	res, err := tk.Wait()
	t1 := time.Now()
	if e.on {
		e.spans = append(e.spans, interval{int64(t0.Sub(e.t0)), int64(t1.Sub(e.t0))})
		e.serviceNs = append(e.serviceNs, int64(tk.Service()))
	}
	return res, err
}

func (e *engineSurface) RefineContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	return e.SearchContext(ctx, user, q)
}

func (e *engineSurface) Stats() bufir.EngineStats { return e.eng.Stats() }
func (e *engineSurface) Close() error             { return e.eng.Close() }

// surface is the untraced serial twin of a deployment, put together
// from the public constructors bufir.Open uses (OpenIndexFile, Shard,
// NewEngine, NewRouter) with one worker per engine, so that each
// engine can be timed through SubmitContext and its Ticket.
type surface struct {
	engines []*engineSurface
	indexes []*bufir.Index
	router  *bufir.Router
	t0      time.Time
	on      bool
	// routed holds the client-observed span of every recorded routed
	// request.
	routed []interval
}

// openSurface opens the file and books the set-up spans.
func openSurface(w workloadSpec, path string, spans spanSet) (*surface, error) {
	s := &surface{t0: time.Now()}
	var ix *bufir.Index
	if err := spans.timeSpan("open.open_s", func() (err error) {
		ix, err = bufir.OpenIndexFile(path)
		return err
	}); err != nil {
		return nil, err
	}
	s.indexes = []*bufir.Index{ix}
	if w.shards > 1 {
		err := spans.timeSpan("shard.split_s", func() (err error) {
			s.indexes, err = ix.Shard(w.shards)
			return err
		})
		_ = ix.Close() // the partitions hold copies of its pages
		if err != nil {
			return nil, err
		}
	}
	if w.live {
		if err := spans.timeSpan("livedex.enable_s", func() error {
			return ix.EnableLiveUpdates(bufir.LiveOptions{})
		}); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := spans.timeSpan("open.open_s", func() error {
		for _, part := range s.indexes {
			eng, err := part.NewEngine(w.engineConfig(1))
			if err != nil {
				return err
			}
			s.engines = append(s.engines, &engineSurface{eng: eng, t0: s.t0})
		}
		if len(s.engines) == 1 {
			return nil
		}
		backends := make([]bufir.Searcher, len(s.engines))
		for i, e := range s.engines {
			backends[i] = e
		}
		var err error
		s.router, err = bufir.NewRouter(backends, bufir.RouterConfig{TopN: topN})
		return err
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *surface) record(on bool) {
	s.on = on
	for _, e := range s.engines {
		e.on = on
	}
}

func (s *surface) search(ctx context.Context, st step) (*bufir.Result, error) {
	if s.router == nil {
		return s.engines[0].SearchContext(ctx, st.user, st.q)
	}
	t0 := time.Now()
	res, err := s.router.SearchContext(ctx, st.user, st.q)
	if s.on {
		s.routed = append(s.routed, interval{int64(t0.Sub(s.t0)), int64(time.Since(s.t0))})
	}
	return res, err
}

// stats returns what a Service over the same parts would report: the
// router's counters when sharded, the engine's otherwise.
func (s *surface) stats() bufir.EngineStats {
	if s.router != nil {
		return s.router.Stats()
	}
	return s.engines[0].Stats()
}

// check holds every engine and the router to the serving law and
// looks for frames left pinned.
func (s *surface) check(res *runResult) {
	for i, e := range s.engines {
		servingLaw(res, fmt.Sprintf("engine %d", i), e.eng.Stats())
		if pinned := e.eng.Obs().Buffer.Pinned; pinned != 0 {
			res.problem("engine %d: %d frames still pinned", i, pinned)
		}
	}
	if s.router != nil {
		servingLaw(res, "router", s.router.Stats())
	}
}

func (s *surface) close() error {
	var first error
	for _, e := range s.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, ix := range s.indexes {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.engines, s.indexes = nil, nil
	return first
}
