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

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// The goldens pin everything a bookkeeping rewrite must not move: the
// cost counters, the answer bits, and — as an FNV-64a hash of the
// fetched PageIDs in order — the schedule itself. The answers of the
// exact cells were recorded from the rank-safe TA/NRA/MAXSCORE
// evaluator and reproduced bit for bit by exact evaluation over the
// accumulator array; the counters are those of the one page loop.
// They are compared literally; regenerate with
//
//	go test ./internal/eval -run TestGolden -update
//
// only when a schedule or an admission is changed on purpose.
var update = flag.Bool("update", false, "rewrite testdata/*.json from the current evaluator")

// goldenLists are the query lengths: the single-list edge, 64 and 65
// lists, and the paper's 30–100-term range.
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
// pages, term pools merged from its topics); "skew" is skewEnv.
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

// skewEnv is a skewed collection at 3 000 documents and 16-entry pages: 140 query terms (df 80–500) in which 24 "hot"
// documents appear often and with frequencies of 20–60 while everyone
// else has 1–4, plus 30 never-queried ballast terms that give every
// other document a long vector — so a few head pages hold the
// answer and the filters' thresholds rise fast.
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

// runGoldenGrid evaluates the exact method × policies × pool sizes ×
// the twelve golden queries. Each (policy, size) cell keeps ONE pool
// across its queries, as the filter grid's cells do.
func runGoldenGrid(t testing.TB, envName string, k int) []goldenRecord {
	env := loadGoldenEnv(t, envName)
	var recs []goldenRecord
	for _, algo := range safeAlgos {
		for _, pol := range goldenPolicies {
			for _, size := range goldenPools {
				mgr := env.newPool(t, size, pol.make(size))
				for i := range goldenLists {
					q := env.query(i)
					sp := &seqPool{Pool: mgr}
					res, err := runFilter(context.Background(), env, sp, q, algo, Params{TopN: k})
					if err != nil {
						t.Fatalf("%v/%s/%d query %d: %v", algo, pol.name, size, i, err)
					}
					name := fmt.Sprintf("%s/%v/%s/pool=%d/lists=%d", envName, algo, pol.name, size, len(q))
					recs = append(recs, record(name, res, sp))
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
			res, err := runFilter(ctx, env, sp, q, algo, Params{TopN: k})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v cancel lists=%d: err=%v", algo, len(q), err)
			}
			recs = append(recs, record(fmt.Sprintf("%s/%v/cancel/lists=%d", envName, algo, len(q)), res, sp))

			rule := storage.NewFaultRule(storage.FaultTransient)
			rule.Prob = 0.08
			fs, err := storage.NewFaultStore(env.store, 23, []storage.FaultRule{rule})
			if err != nil {
				t.Fatal(err)
			}
			sp = &seqPool{Pool: env.poolOver(t, 128, fs, buffer.NewLRU())}
			res, err = runFilter(context.Background(), env, sp, q, algo, Params{TopN: k, FaultBudget: len(q)})
			if err != nil {
				t.Fatalf("%v faults lists=%d: %v", algo, len(q), err)
			}
			recs = append(recs, record(fmt.Sprintf("%s/%v/faults/lists=%d", envName, algo, len(q)), res, sp))
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
// collection.
var goldenTopN = map[string]int{"corpus": 10, "skew": 3}

// TestGoldenGrid: counters, answer bits and fetch order of MAXSCORE ×
// {LRU, RAP} × three pool sizes × queries of 1…70 lists equal the
// recorded evaluator's, literally.
func TestGoldenGrid(t *testing.T) {
	for name, k := range goldenTopN {
		compareGolden(t, "golden_"+name+".json", runGoldenGrid(t, name, k))
	}
}

// The filter goldens pin DF, BAF and WEB the same way. Every record,
// exact or filtered, also holds every trace row — term, BAF's d_t,
// pages and entries scanned, and the Skipped, Truncated and Faulted
// flags — in row order, which is processing order. The filter goldens
// were recorded from the evaluator whose DF, BAF and WEB ran their own
// round loops beside the rank-safe page loop, and are regenerated by
// the same -update flag.
var filterAlgos = []Algorithm{DF, BAF, WebLegend}

type goldenRecord struct {
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

func record(name string, out *Result, sp *seqPool) goldenRecord {
	rec := goldenRecord{
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
func runFilterGrid(t testing.TB, envName string, k int) []goldenRecord {
	env := loadGoldenEnv(t, envName)
	var recs []goldenRecord
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
					recs = append(recs, record(name, res, sp))
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
func runFilterOutcomes(t testing.TB, envName string, k int) []goldenRecord {
	env := loadGoldenEnv(t, envName)
	var recs []goldenRecord
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
				recs = append(recs, record(fmt.Sprintf("%s/%v/cancel/late=%v/lists=%d", envName, algo, late, len(q)), res, sp))
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
			recs = append(recs, record(fmt.Sprintf("%s/%v/faults/lists=%d", envName, algo, len(q)), res, sp))
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
