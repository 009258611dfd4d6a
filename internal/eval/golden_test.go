package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/storage"
)

// The goldens pin everything a bookkeeping rewrite must not move: the
// cost counters, the termination verdict, the answer bits, and — as an
// FNV-64a hash of the fetched PageIDs in order — the schedule itself.
// They were recorded from PR 9's evaluator (one heap object per
// candidate behind a Go map, whole-map walks per proof and per finished
// list) and are compared literally; regenerate with
//
//	go test ./internal/eval -run TestGolden -update
//
// only when a schedule or the proof is changed on purpose.
var update = flag.Bool("update", false, "rewrite testdata/*.json from the current evaluator")

// goldenLists are the query lengths: the single-list edge, the
// seen-mask word boundary (64 / 65), and the paper's 30–100-term range.
// Even positions draw from one term pool, odd positions from the other.
var goldenLists = []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 64, 65, 70}

var goldenPools = []int{16, 128, 1024}

var goldenPolicies = []struct {
	name string
	make func(int) buffer.Policy
}{
	{"LRU", func(int) buffer.Policy { return buffer.NewLRU() }},
	{"RAP", func(int) buffer.Policy { return buffer.NewRAP() }},
}

type goldenDoc struct {
	Doc  int32  `json:"doc"`
	Bits string `json:"bits"` // math.Float64bits(Score), hex
}

type goldenRecord struct {
	Name               string      `json:"name"`
	PagesProcessed     int         `json:"pages_processed"`
	PagesRead          int         `json:"pages_read"`
	EntriesProcessed   int         `json:"entries_processed"`
	SelectionInquiries int         `json:"selection_inquiries"`
	Candidates         int         `json:"candidates"`
	Complete           int         `json:"complete"`
	Terminated         bool        `json:"terminated"`
	Partial            bool        `json:"partial,omitempty"`
	Degraded           bool        `json:"degraded,omitempty"`
	Faults             int         `json:"faults,omitempty"`
	Smax               string      `json:"smax"`     // math.Float64bits, hex
	PageSeq            string      `json:"page_seq"` // FNV-64a of the fetch order, hex
	Top                []goldenDoc `json:"top"`
}

// goldenEnv is one seeded collection the golden runs read, with two
// 70-term pools to draw queries from.
type goldenEnv struct {
	*fixture
	pools [2]Query
}

var (
	goldenOnce sync.Once
	goldenEnvs map[string]*goldenEnv
	goldenErr  error
)

// loadGoldenEnv returns the named collection: "corpus" is the tiny
// synthetic corpus (4 000 documents, 50-entry pages, lists of 1–40
// pages, term pools merged from its topics), where the proof rarely
// fires and runs end by exhaustion; "skew" is skewEnv, where it fires
// after a few pages per list.
func loadGoldenEnv(t testing.TB, name string) *goldenEnv {
	t.Helper()
	goldenOnce.Do(func() {
		c, err := corpusEnv(t)
		if err != nil {
			goldenErr = err
			return
		}
		s, err := skewEnv(t)
		if err != nil {
			goldenErr = err
			return
		}
		goldenEnvs = map[string]*goldenEnv{"corpus": c, "skew": s}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenEnvs[name]
}

func corpusEnv(t testing.TB) (*goldenEnv, error) {
	coll, err := corpus.Generate(corpus.TinyConfig(1998))
	if err != nil {
		return nil, err
	}
	env := &goldenEnv{fixture: newFixture(t, coll.Lists, coll.NumDocs, coll.Cfg.PageSize)}
	ix := env.ix
	// Pool p merges topics p, p+2, p+4, ... until it holds 70 distinct
	// terms.
	for p := range env.pools {
		seen := make(map[postings.TermID]bool)
		for ti := p; ti < len(coll.Topics); ti += 2 {
			for _, tt := range coll.Topics[ti].Terms {
				id, ok := ix.LookupTerm(tt.Term)
				if !ok || seen[id] || len(env.pools[p]) == 70 {
					continue
				}
				seen[id] = true
				env.pools[p] = append(env.pools[p], QueryTerm{Term: id, Fqt: tt.Fqt})
			}
		}
		if len(env.pools[p]) < 70 {
			return nil, fmt.Errorf("term pool %d has %d terms, need 70", p, len(env.pools[p]))
		}
	}
	return env, nil
}

// skewEnv is the shape early termination needs, at 3 000 documents and
// 16-entry pages: 140 query terms (df 80–500) in which 24 "hot"
// documents appear often and with frequencies of 20–60 while everyone
// else has 1–4, plus 30 never-queried ballast terms that give every
// other document a long vector — so once the head pages are read the
// hot documents are complete and every bound on the rest is small.
func skewEnv(t testing.TB) (*goldenEnv, error) {
	const (
		numDocs  = 3000
		hot      = 24
		terms    = 140
		ballast  = 30
		pageSize = 16
	)
	r := rand.New(rand.NewSource(1998))
	lists := make([]postings.TermPostings, 0, terms+ballast)
	for tm := 0; tm < terms; tm++ {
		tp := postings.TermPostings{Name: fmt.Sprintf("q%03d", tm)}
		for d := 0; d < hot; d++ {
			if r.Float64() < 0.8 {
				tp.Entries = append(tp.Entries, postings.Entry{Doc: postings.DocID(d), Freq: int32(20 + r.Intn(41))})
			}
		}
		df := 80 + r.Intn(421)
		for _, d := range r.Perm(numDocs - hot)[:df] {
			f := int32(1)
			for f < 4 && r.Float64() < 0.3 {
				f++
			}
			tp.Entries = append(tp.Entries, postings.Entry{Doc: postings.DocID(hot + d), Freq: f})
		}
		lists = append(lists, tp)
	}
	for b := 0; b < ballast; b++ {
		tp := postings.TermPostings{Name: fmt.Sprintf("b%02d", b)}
		for d := hot; d < numDocs; d++ {
			if d%ballast == b || (7*d+3)%ballast == b || r.Float64() < 0.05 {
				tp.Entries = append(tp.Entries, postings.Entry{Doc: postings.DocID(d), Freq: int32(25 + r.Intn(16))})
			}
		}
		lists = append(lists, tp)
	}
	env := &goldenEnv{fixture: newFixture(t, lists, numDocs, pageSize)}
	for tm := 0; tm < terms; tm++ {
		env.pools[tm%2] = append(env.pools[tm%2], QueryTerm{Term: postings.TermID(tm), Fqt: 1 + tm%3/2})
	}
	return env, nil
}

// query returns the i-th golden query: goldenLists[i] terms from pool
// i%2, starting at a per-query offset so prefixes are not nested.
func (e *goldenEnv) query(i int) Query {
	pool := e.pools[i%2]
	n := goldenLists[i]
	q := make(Query, n)
	for j := range q {
		q[j] = pool[(3*i+j)%len(pool)]
	}
	return q
}

// announce tells the pool about the query the way EvaluateContext does
// before it starts a safe run (RAP re-keys on it; LRU ignores it).
func (e *goldenEnv) announce(pool buffer.Pool, q Query) {
	w := make(buffer.QueryWeights, len(q))
	for _, qt := range q {
		w[qt.Term] = rank.QueryWeight(qt.Fqt, e.ix.IDF(qt.Term))
	}
	pool.SetQuery(w)
}

// seqPool hashes the fetch order and, when cancelAt > 0, cancels the
// context as the cancelAt-th fetch is issued — or, with cancelLate, as
// it returns, so that the evaluator meets the dead context between
// pages instead of inside a fetch.
type seqPool struct {
	buffer.Pool
	fetches    int
	hash       uint64
	cancelAt   int
	cancelLate bool
	cancel     context.CancelFunc
}

func (p *seqPool) FetchContext(ctx context.Context, id postings.PageID) (*buffer.Frame, bool, error) {
	p.fetches++
	if p.fetches == p.cancelAt && !p.cancelLate {
		p.cancel()
	}
	if p.hash == 0 {
		p.hash = 14695981039346656037 // FNV-64a offset basis
	}
	for i := 0; i < 4; i++ {
		p.hash = (p.hash ^ uint64(byte(uint32(id)>>(8*i)))) * 1099511628211
	}
	f, missed, err := p.Pool.FetchContext(ctx, id)
	if p.fetches == p.cancelAt && p.cancelLate {
		p.cancel()
	}
	return f, missed, err
}

// runGolden evaluates q on the announced pool as EvaluateContext does
// after its announcement — a safe run, then the one Result writer — and
// returns the run, whose candidate, completeness and termination state
// the records read.
func runGolden(ctx context.Context, t testing.TB, ix *postings.Index, sp *seqPool, q Query, algo Algorithm, p Params) (*run, error) {
	r := newTestRun(t, ix, sp, q, algo, p)
	err := r.evaluate(ctx)
	finish(r.res, err, time.Now())
	return r, err
}

func record(name string, r *run, sp *seqPool) goldenRecord {
	out := r.res
	rec := goldenRecord{
		Name:               name,
		PagesProcessed:     out.PagesProcessed,
		PagesRead:          out.PagesRead,
		EntriesProcessed:   out.EntriesProcessed,
		SelectionInquiries: out.SelectionInquiries,
		Candidates:         len(r.acc.docs),
		Complete:           r.complete,
		Terminated:         r.terminated,
		Partial:            out.Partial,
		Degraded:           out.Degraded,
		Faults:             out.Faults,
		Smax:               strconv.FormatUint(math.Float64bits(r.smax), 16),
		PageSeq:            strconv.FormatUint(sp.hash, 16),
		Top:                make([]goldenDoc, len(out.Top)),
	}
	for i, sd := range out.Top {
		rec.Top[i] = goldenDoc{Doc: int32(sd.Doc), Bits: strconv.FormatUint(math.Float64bits(sd.Score), 16)}
	}
	return rec
}

// runGoldenGrid evaluates schedules × policies × pool sizes × the
// twelve golden queries. Each (schedule, policy, size) cell keeps ONE
// pool across its queries, so residency left by a query steers the
// schedule of the next — the coupling the paper is about.
func runGoldenGrid(t testing.TB, envName string, k int) []goldenRecord {
	env := loadGoldenEnv(t, envName)
	var recs []goldenRecord
	for _, algo := range safeAlgos {
		for _, pol := range goldenPolicies {
			for _, size := range goldenPools {
				mgr := env.newPool(t, size, pol.make(size))
				for i := range goldenLists {
					q := env.query(i)
					env.announce(mgr, q)
					sp := &seqPool{Pool: mgr}
					r, err := runGolden(context.Background(), t, env.ix, sp, q, algo, Params{TopN: k})
					if err != nil {
						t.Fatalf("%v/%s/%d query %d: %v", algo, pol.name, size, i, err)
					}
					name := fmt.Sprintf("%s/%v/%s/pool=%d/lists=%d", envName, algo, pol.name, size, len(q))
					recs = append(recs, record(name, r, sp))
				}
			}
		}
	}
	return recs
}

// runGoldenOutcomes evaluates the Partial and Degraded shapes on the
// grid's inputs: a context canceled as a mid-list fetch is issued, and
// a seeded 8 % transient fault schedule absorbed by the budget.
func runGoldenOutcomes(t testing.TB, envName string, k int) []goldenRecord {
	env := loadGoldenEnv(t, envName)
	var recs []goldenRecord
	for _, algo := range safeAlgos {
		for _, i := range []int{3, 6, 8, 11} { // 5, 21, 55 and 70 lists
			q := env.query(i)

			ctx, cancel := context.WithCancel(context.Background())
			sp := &seqPool{Pool: env.newPool(t, 128, buffer.NewLRU()), cancelAt: len(q)/2 + 2, cancel: cancel}
			env.announce(sp, q)
			r, err := runGolden(ctx, t, env.ix, sp, q, algo, Params{TopN: k})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v cancel lists=%d: err=%v", algo, len(q), err)
			}
			recs = append(recs, record(fmt.Sprintf("%s/%v/cancel/lists=%d", envName, algo, len(q)), r, sp))

			rule := storage.NewFaultRule(storage.FaultTransient)
			rule.Prob = 0.08
			fs, err := storage.NewFaultStore(env.store, 23, []storage.FaultRule{rule})
			if err != nil {
				t.Fatal(err)
			}
			sp = &seqPool{Pool: env.poolOver(t, 128, fs, buffer.NewLRU())}
			env.announce(sp, q)
			r, err = runGolden(context.Background(), t, env.ix, sp, q, algo, Params{TopN: k, FaultBudget: len(q)})
			if err != nil {
				t.Fatalf("%v faults lists=%d: %v", algo, len(q), err)
			}
			recs = append(recs, record(fmt.Sprintf("%s/%v/faults/lists=%d", envName, algo, len(q)), r, sp))
		}
	}
	return recs
}

func compareGolden[R any](t *testing.T, file string, got []R) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		// One compact record per line: a moved counter is a one-line diff.
		var buf bytes.Buffer
		sep := "[\n"
		for _, rec := range got {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString(sep)
			buf.Write(line)
			sep = ",\n"
		}
		buf.WriteString("\n]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", path, len(got))
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []R
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, golden has %d", path, len(got), len(want))
	}
	for i := range want {
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(g) != string(w) {
			t.Errorf("%s record %d\n got  %s\n want %s", file, i, g, w)
		}
	}
}

// goldenTopN is the answer size per collection: 10 on the corpus (the
// benchmark serves 20; 10 keeps the file reviewable), 3 on the skewed
// collection, where two queries in three then stop early at depths
// from one page to all but a few.
var goldenTopN = map[string]int{"corpus": 10, "skew": 3}

// TestGoldenGrid: counters, verdicts, answer bits and fetch order over
// {TA, NRA, MAXSCORE} × {LRU, RAP} × three pool sizes × queries of
// 1…70 lists equal the recorded evaluator's, literally.
func TestGoldenGrid(t *testing.T) {
	for name, k := range goldenTopN {
		compareGolden(t, "golden_"+name+".json", runGoldenGrid(t, name, k))
	}
}

// The filter goldens pin DF, BAF and WEB the same way, plus what the
// rank-safe records leave out because those methods have no rounds:
// the residency inquiries, the accumulator count and every trace row —
// term, BAF's d_t, pages and entries scanned, and the Skipped,
// Truncated and Faulted flags — in row order, which is processing
// order. They were recorded from the evaluator whose DF, BAF and WEB
// ran their own round loops beside the rank-safe page loop, and are
// regenerated by the same -update flag.
var filterAlgos = []Algorithm{DF, BAF, WebLegend}

type filterRecord struct {
	Name               string      `json:"name"`
	PagesProcessed     int         `json:"pages_processed"`
	PagesRead          int         `json:"pages_read"`
	EntriesProcessed   int         `json:"entries_processed"`
	SelectionInquiries int         `json:"selection_inquiries"`
	Accumulators       int         `json:"accumulators"`
	Partial            bool        `json:"partial,omitempty"`
	Degraded           bool        `json:"degraded,omitempty"`
	Faults             int         `json:"faults,omitempty"`
	Smax               string      `json:"smax"`     // math.Float64bits, hex
	PageSeq            string      `json:"page_seq"` // FNV-64a of the fetch order, hex
	Top                []goldenDoc `json:"top"`
	// Trace holds one "term est pages entries[flags]" string per row;
	// the flags are S(kipped), T(runcated) and F(aulted).
	Trace []string `json:"trace"`
}

// filterParams are golden query i's parameters: even queries use the
// repository's tuned filtering constants, odd ones eight times those,
// where whole lists fall under f_add, and every fourth query forces
// the first page of such lists.
func filterParams(i, k, budget int) Params {
	p := TunedParams()
	scale := float64(1 + 7*(i%2))
	p.CAdd, p.CIns, p.ForceFirstPage = scale*p.CAdd, scale*p.CIns, i%4 == 3
	p.TopN, p.FaultBudget = k, budget
	return p
}

// runFilter evaluates q through EvaluateContext, which announces the
// query itself.
func runFilter(ctx context.Context, env *goldenEnv, sp *seqPool, q Query, algo Algorithm, p Params) (*Result, error) {
	ev := &Evaluator{Idx: env.ix, Buf: sp, Conv: env.conv, Params: p}
	return ev.EvaluateContext(ctx, algo, q)
}

func recordFilter(name string, out *Result, sp *seqPool) filterRecord {
	rec := filterRecord{
		Name:               name,
		PagesProcessed:     out.PagesProcessed,
		PagesRead:          out.PagesRead,
		EntriesProcessed:   out.EntriesProcessed,
		SelectionInquiries: out.SelectionInquiries,
		Accumulators:       out.Accumulators,
		Partial:            out.Partial,
		Degraded:           out.Degraded,
		Faults:             out.Faults,
		Smax:               strconv.FormatUint(math.Float64bits(out.Smax), 16),
		PageSeq:            strconv.FormatUint(sp.hash, 16),
		Top:                make([]goldenDoc, len(out.Top)),
	}
	for i, sd := range out.Top {
		rec.Top[i] = goldenDoc{Doc: int32(sd.Doc), Bits: strconv.FormatUint(math.Float64bits(sd.Score), 16)}
	}
	for _, tr := range out.Trace {
		row := fmt.Sprintf("%d %d %d %d", tr.Term, tr.EstimatedReads, tr.PagesProcessed, tr.EntriesProcessed)
		if tr.Skipped {
			row += "S"
		}
		if tr.Truncated {
			row += "T"
		}
		if tr.Faulted {
			row += "F"
		}
		rec.Trace = append(rec.Trace, row)
	}
	return rec
}

// runFilterGrid is runGoldenGrid for DF, BAF and WEB: one pool per
// (method, policy, size) cell across the twelve queries, so WEB meets
// queries whose lists are partly resident.
func runFilterGrid(t testing.TB, envName string, k int) []filterRecord {
	env := loadGoldenEnv(t, envName)
	var recs []filterRecord
	for _, algo := range filterAlgos {
		for _, pol := range goldenPolicies {
			for _, size := range goldenPools {
				mgr := env.newPool(t, size, pol.make(size))
				for i := range goldenLists {
					q := env.query(i)
					sp := &seqPool{Pool: mgr}
					res, err := runFilter(context.Background(), env, sp, q, algo, filterParams(i, k, 0))
					if err != nil {
						t.Fatalf("%v/%s/%d query %d: %v", algo, pol.name, size, i, err)
					}
					name := fmt.Sprintf("%s/%v/%s/pool=%d/lists=%d", envName, algo, pol.name, size, len(q))
					recs = append(recs, recordFilter(name, res, sp))
				}
			}
		}
	}
	return recs
}

// runFilterOutcomes is runGoldenOutcomes for DF, BAF and WEB. Filtered
// runs read few pages, so the cancel lands halfway through the fetches
// an uncanceled run on a fresh pool makes — once inside that fetch and
// once just after it, where the evaluator meets it between pages. Each
// run starts on a pool warmed by a DF run of the query's first half,
// so that WEB meets some lists resident and some not.
func runFilterOutcomes(t testing.TB, envName string, k int) []filterRecord {
	env := loadGoldenEnv(t, envName)
	var recs []filterRecord
	fresh := func(q Query, p Params) *buffer.Manager {
		mgr := env.newPool(t, 128, buffer.NewLRU())
		if _, err := runFilter(context.Background(), env, &seqPool{Pool: mgr}, q[:len(q)/2], DF, p); err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	for _, algo := range filterAlgos {
		for _, i := range []int{3, 6, 8, 11} { // 5, 21, 55 and 70 lists
			q, p := env.query(i), filterParams(i, k, 0)
			full := &seqPool{Pool: fresh(q, p)}
			if _, err := runFilter(context.Background(), env, full, q, algo, p); err != nil {
				t.Fatal(err)
			}
			for _, late := range []bool{false, true} {
				ctx, cancel := context.WithCancel(context.Background())
				sp := &seqPool{Pool: fresh(q, p), cancelAt: (full.fetches + 1) / 2, cancelLate: late, cancel: cancel}
				res, err := runFilter(ctx, env, sp, q, algo, p)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v cancel lists=%d late=%v: err=%v", algo, len(q), late, err)
				}
				recs = append(recs, recordFilter(fmt.Sprintf("%s/%v/cancel/late=%v/lists=%d", envName, algo, late, len(q)), res, sp))
			}

			rule := storage.NewFaultRule(storage.FaultTransient)
			rule.Prob = 0.08
			fs, err := storage.NewFaultStore(env.store, 23, []storage.FaultRule{rule})
			if err != nil {
				t.Fatal(err)
			}
			sp := &seqPool{Pool: env.poolOver(t, 128, fs, buffer.NewLRU())}
			res, err := runFilter(context.Background(), env, sp, q, algo, filterParams(i, k, len(q)))
			if err != nil {
				t.Fatalf("%v faults lists=%d: %v", algo, len(q), err)
			}
			recs = append(recs, recordFilter(fmt.Sprintf("%s/%v/faults/lists=%d", envName, algo, len(q)), res, sp))
		}
	}
	return recs
}

// TestGoldenFilterGrid: DF, BAF and WEB counters, answer bits, fetch
// order and trace rows over the grid of TestGoldenGrid equal the
// recorded evaluator's, literally.
func TestGoldenFilterGrid(t *testing.T) {
	for name, k := range goldenTopN {
		compareGolden(t, "golden_"+name+"_filter.json", runFilterGrid(t, name, k))
	}
}

// TestGoldenFilterPartialAndDegraded: DF, BAF and WEB's anytime and
// degraded answers, with their traces, equal the recorded evaluator's.
func TestGoldenFilterPartialAndDegraded(t *testing.T) {
	for name, k := range goldenTopN {
		compareGolden(t, "golden_"+name+"_filter_outcomes.json", runFilterOutcomes(t, name, k))
	}
}

// TestGoldenPartialAndDegraded: the anytime answer of a canceled run
// and the degraded answer of a faulted one equal the recorded
// evaluator's on the same inputs.
func TestGoldenPartialAndDegraded(t *testing.T) {
	for name, k := range goldenTopN {
		compareGolden(t, "golden_"+name+"_outcomes.json", runGoldenOutcomes(t, name, k))
	}
}

// The snapshot golden pins what EvaluateResumeContext records and
// replays: per round of a DF snapshot, the term, the Clean flag, the
// S_max bits after it, the write count and an FNV-64a hash over the
// (doc, value bits) writes in order. Each query of the filter grid's
// DF cells is recorded twice: cold, with its last canonical term
// dropped, and then whole, resumed from that snapshot — the second
// record's answer comes from replayed writes.
type snapshotRecord struct {
	Name         string      `json:"name"`
	ReusedRounds int         `json:"reused_rounds"`
	Accumulators int         `json:"accumulators"`
	Smax         string      `json:"smax"` // math.Float64bits, hex
	Top          []goldenDoc `json:"top"`
	// Rounds holds one "term clean smax writes hash" string per round.
	Rounds []string `json:"rounds"`
}

func recordSnapshot(name string, out *Result, snap *Snapshot) snapshotRecord {
	rec := snapshotRecord{
		Name:         name,
		ReusedRounds: out.ReusedRounds,
		Accumulators: out.Accumulators,
		Smax:         strconv.FormatUint(math.Float64bits(out.Smax), 16),
		Top:          make([]goldenDoc, len(out.Top)),
	}
	for i, sd := range out.Top {
		rec.Top[i] = goldenDoc{Doc: int32(sd.Doc), Bits: strconv.FormatUint(math.Float64bits(sd.Score), 16)}
	}
	for _, rr := range snap.rounds {
		h := uint64(14695981039346656037)
		for _, w := range rr.Writes {
			for _, x := range [2]uint64{uint64(uint32(w.Doc)), math.Float64bits(w.Val)} {
				for i := 0; i < 8; i++ {
					h = (h ^ uint64(byte(x>>(8*i)))) * 1099511628211
				}
			}
		}
		rec.Rounds = append(rec.Rounds, fmt.Sprintf("%d %v %x %d %x",
			rr.Term, rr.Clean, math.Float64bits(rr.SmaxAfter), len(rr.Writes), h))
	}
	return rec
}

// runSnapshotGrid walks the filter grid's DF cells, one pool per
// (policy, size) cell across the twelve queries.
func runSnapshotGrid(t testing.TB, envName string, k int) []snapshotRecord {
	env := loadGoldenEnv(t, envName)
	var recs []snapshotRecord
	for _, pol := range goldenPolicies {
		for _, size := range goldenPools {
			mgr := env.newPool(t, size, pol.make(size))
			for i := range goldenLists {
				ev := &Evaluator{Idx: env.ix, Buf: mgr, Conv: env.conv, Params: filterParams(i, k, 0)}
				q, err := ev.checkQuery(env.query(i))
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/pool=%d/lists=%d", envName, pol.name, size, len(q))
				var prev *Snapshot
				if len(q) > 1 {
					res, snap, err := ev.EvaluateResumeContext(context.Background(), DF, q[:len(q)-1], nil)
					if err != nil {
						t.Fatalf("%s prefix: %v", name, err)
					}
					recs = append(recs, recordSnapshot(name+"/prefix", res, snap))
					prev = snap
				}
				res, snap, err := ev.EvaluateResumeContext(context.Background(), DF, q, prev)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				recs = append(recs, recordSnapshot(name+"/resumed", res, snap))
			}
		}
	}
	return recs
}

// TestGoldenSnapshots: the rounds a DF snapshot records, and the
// answer a resume from it replays, equal the recorded evaluator's.
func TestGoldenSnapshots(t *testing.T) {
	for name, k := range goldenTopN {
		compareGolden(t, "golden_"+name+"_snapshot.json", runSnapshotGrid(t, name, k))
	}
}
