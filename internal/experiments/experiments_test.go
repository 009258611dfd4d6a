package experiments

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"strings"
	"testing"

	"bufir/internal/corpus"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/refine"
)

func TestSweepSizes(t *testing.T) {
	sizes := SweepSizes(100, 5)
	if sizes[0] < 1 {
		t.Error("smallest size below 1")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not strictly ascending: %v", sizes)
		}
	}
	if sizes[len(sizes)-1] <= 100 {
		t.Error("sweep must extend beyond the working set")
	}
	// Degenerate inputs.
	if got := SweepSizes(0, 0); len(got) < 2 || got[0] != 1 {
		t.Errorf("degenerate sweep = %v", got)
	}
}

// TestNewPolicy: the experiments build all six policies by name — the
// product's three through buffer.PolicyFactory and the extension
// policies directly.
func TestNewPolicy(t *testing.T) {
	for _, name := range DriftPolicies {
		pol, err := NewPolicy(name, 16)
		if err != nil || pol.Name() != name {
			t.Errorf("NewPolicy(%s) = %v, %v", name, pol, err)
		}
	}
	if _, err := NewPolicy("CLOCK", 16); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestComboString(t *testing.T) {
	c := Combo{eval.DF, "LRU"}
	if c.String() != "DF/LRU" {
		t.Errorf("combo = %q", c)
	}
	if len(Combos) != 6 {
		t.Errorf("want 6 combos, got %d", len(Combos))
	}
}

// TestFig3Invariants: filtered evaluation can never read more pages
// than exhaustive evaluation of the same query (it reads a prefix of
// each list), and savings stay within [0, 100].
func TestFig3Invariants(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(env.Queries) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(env.Queries))
	}
	for _, row := range res.Rows {
		if row.DFReads > row.FullReads {
			t.Errorf("topic %d: DF read %d > FULL %d", row.TopicID, row.DFReads, row.FullReads)
		}
		if row.SavingsPct < 0 || row.SavingsPct > 100 {
			t.Errorf("topic %d: savings %.1f%% out of range", row.TopicID, row.SavingsPct)
		}
		if row.DFAccums > row.FullAccums {
			t.Errorf("topic %d: DF accumulators exceed FULL", row.TopicID)
		}
		if row.FullReads != row.TotalPages {
			t.Errorf("topic %d: FULL read %d != total pages %d (cold, ample buffers)",
				row.TopicID, row.FullReads, row.TotalPages)
		}
	}
}

// TestSweepPolicyIrrelevantWhenEverythingFits: once the pool holds the
// whole working set no evictions happen, so within an algorithm every
// policy must produce identical totals.
func TestSweepPolicyIrrelevantWhenEverythingFits(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunSweep("test", 0, refine.AddOnly, 4)
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Sizes) - 1
	if res.Sizes[last] <= res.WorkingSet {
		t.Fatal("sweep does not reach the working set")
	}
	for _, algo := range []string{"DF", "BAF"} {
		ref := res.Series[algo+"/LRU"][last]
		for _, pol := range []string{"MRU", "RAP"} {
			if got := res.Series[algo+"/"+pol][last]; got != ref {
				t.Errorf("%s: %s reads %d != LRU %d at ample buffers", algo, pol, got, ref)
			}
		}
	}
	// At one buffer page every combination within an algorithm also
	// agrees: every page access is a miss regardless of policy.
	for _, algo := range []string{"DF", "BAF"} {
		ref := res.Series[algo+"/LRU"][0]
		for _, pol := range []string{"MRU", "RAP"} {
			if got := res.Series[algo+"/"+pol][0]; got != ref {
				t.Errorf("%s: %s reads %d != LRU %d at 1 buffer", algo, pol, got, ref)
			}
		}
	}
}

// TestDFLRUWorstAtMidSizes: the paper's headline — DF/LRU performs
// relatively poorly across the (interesting) range of buffer sizes.
func TestDFLRUWorstAtMidSizes(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunSweep("test", 0, refine.AddOnly, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond degenerate pool sizes DF/LRU must read at least as much
	// as BAF/RAP, and strictly more somewhere.
	strict := false
	for i := range res.Sizes {
		if res.Sizes[i] < res.WorkingSet/10 {
			continue
		}
		dflru := res.Series["DF/LRU"][i]
		bafrap := res.Series["BAF/RAP"][i]
		if bafrap > dflru {
			t.Errorf("size %d: BAF/RAP read %d > DF/LRU %d", res.Sizes[i], bafrap, dflru)
		}
		if bafrap < dflru {
			strict = true
		}
	}
	if !strict {
		t.Error("BAF/RAP never beat DF/LRU anywhere in the sweep")
	}
}

func TestWorkedExampleInvariants(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunWorkedExample()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DFRows) != 6 || len(res.BAFRows) != 6 {
		t.Fatalf("worked example should trace 6 terms, got %d/%d", len(res.DFRows), len(res.BAFRows))
	}
	if res.BAFReads > res.DFReads {
		t.Errorf("BAF read more (%d) than DF (%d) for the added term", res.BAFReads, res.DFReads)
	}
	// BAF must process the added term last.
	if res.BAFRows[5].Term != res.AddedTerm {
		t.Errorf("BAF processed %q last, want the added term %q", res.BAFRows[5].Term, res.AddedTerm)
	}
	// Answer quality: the two executions agree on at least 75% of the
	// top 20 (paper: 19 of 20).
	if res.TopOverlap*4 < res.TopN*3 {
		t.Errorf("top overlap %d/%d too low", res.TopOverlap, res.TopN)
	}
}

func TestTable7Blocks(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunTable7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 || res.Collapsed == nil {
		t.Fatalf("blocks = %d, collapsed = %v", len(res.Blocks), res.Collapsed != nil)
	}
	for _, block := range res.Blocks {
		for _, combo := range Combos {
			if _, ok := block.Reads[combo.String()]; !ok {
				t.Errorf("block %s missing combo %s", block.Label, combo)
			}
		}
		if block.Reads["BAF/RAP"] > block.Reads["DF/LRU"] {
			t.Errorf("block %s: BAF/RAP last-refinement reads exceed DF/LRU", block.Label)
		}
	}
}

func TestTable6Ordering(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunTable6()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Contribution > res.Rows[i-1].Contribution {
			t.Fatal("table 6 not in contribution order")
		}
		if res.Rows[i].Group < res.Rows[i-1].Group {
			t.Fatal("group numbers not non-decreasing")
		}
	}
}

// TestEnvDeterminism: two environments from the same config produce
// identical experiment outputs.
func TestEnvDeterminism(t *testing.T) {
	a, err := NewEnv(corpus.TinyConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(corpus.TinyConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Rows {
		if ra.Rows[i] != rb.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, ra.Rows[i], rb.Rows[i])
		}
	}
}

// TestParamsOverride: SetParams changes what the experiments run with.
func TestParamsOverride(t *testing.T) {
	env := newTinyEnv(t)
	def := env.Params()
	if def != eval.TunedParams() {
		t.Errorf("default params = %+v", def)
	}
	env.SetParams(eval.PaperParams())
	if env.Params() != eval.PaperParams() {
		t.Error("SetParams did not take effect")
	}
}

func TestFullTopCaching(t *testing.T) {
	env := newTinyEnv(t)
	a, err := env.FullTop(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.FullTop(0)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("FullTop not cached")
	}
	ranked1, err := env.RankedTerms(0)
	if err != nil {
		t.Fatal(err)
	}
	ranked2, err := env.RankedTerms(0)
	if err != nil {
		t.Fatal(err)
	}
	if &ranked1[0] != &ranked2[0] {
		t.Error("RankedTerms not cached")
	}
}

// TestBaselinesOrdering: RAP must dominate the history-based policies,
// which in turn never do worse than plain LRU on ADD-ONLY (footnote
// 7's comparison; see EXPERIMENTS.md for the measured refinement of
// the paper's conjecture).
func TestBaselinesOrdering(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunBaselines(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Sizes {
		lru := res.Series["LRU"][i]
		rap := res.Series["RAP"][i]
		if rap > lru {
			t.Errorf("size %d: RAP read %d > LRU %d", res.Sizes[i], rap, lru)
		}
		for _, p := range []string{"LRU-2", "2Q"} {
			if got := res.Series[p][i]; got > lru {
				t.Errorf("size %d: %s read %d > LRU %d", res.Sizes[i], p, got, lru)
			}
		}
	}
	if adv := res.LRUFamilyMaxAdvantagePct(); adv < 0 {
		t.Errorf("advantage metric negative: %.1f", adv)
	}
}

func TestCompressionExperiment(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunCompression()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Error("the compressed index file changed query results")
	}
	if res.Stats.Ratio() < 3 {
		t.Errorf("compression ratio %.1f below 3:1", res.Stats.Ratio())
	}
	if res.DecodedEntries == 0 {
		t.Error("no decompression work recorded")
	}
}

func TestFeedbackExperiment(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunFeedback(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 || res.FinalTerms <= 3 {
		t.Fatalf("feedback did not expand: rounds=%d terms=%d", res.Rounds, res.FinalTerms)
	}
	// The paper's ordering should survive the feedback workload across
	// the meaningful buffer range. (At degenerate pool sizes — a page
	// or two — BAF can read slightly more than DF, exactly as the
	// paper's own Figures 7-8 show at their leftmost points.)
	strict := false
	for i := range res.Sizes {
		if res.Sizes[i] < res.WorkingSet/10 {
			continue
		}
		baf, df := res.Series["BAF/RAP"][i], res.Series["DF/LRU"][i]
		if baf > df {
			t.Errorf("size %d: BAF/RAP %d > DF/LRU %d", res.Sizes[i], baf, df)
		}
		if baf < df {
			strict = true
		}
	}
	if !strict {
		t.Error("BAF/RAP never beat DF/LRU on the feedback workload")
	}
}

func TestDocSortedExperiment(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunDocSorted(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Sizes {
		// Footnote 14: the doc-sorted engine reads at least as much as
		// DF over the frequency-sorted layout.
		if or, df := res.Series["docsorted-OR/LRU"][i], res.Series["DF/LRU"][i]; or < df {
			t.Errorf("size %d: doc-sorted read %d < DF %d", res.Sizes[i], or, df)
		}
	}
	if res.AvgAccums["docsorted-OR/LRU"] <= res.AvgAccums["DF/LRU"] {
		t.Error("exhaustive doc-sorted evaluation should use far more accumulators than DF")
	}
}

// TestContinueKeepsUpdatingButReadsEverything: Moffat-Zobel Continue
// stops creating accumulators at the limit but still scans every list
// to update the ones it holds, so it saves memory, never reads.
func TestContinueKeepsUpdatingButReadsEverything(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunDocSorted(4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Series["docsorted-CONT/LRU"], res.Series["docsorted-OR/LRU"]) {
		t.Errorf("Continue read %v, OR %v", res.Series["docsorted-CONT/LRU"], res.Series["docsorted-OR/LRU"])
	}
	cont, or := res.AvgAccums["docsorted-CONT/LRU"], res.AvgAccums["docsorted-OR/LRU"]
	if cont > float64(res.AccumLimit) {
		t.Errorf("Continue exceeded the accumulator limit %d: %.0f", res.AccumLimit, cont)
	}
	// The tiny collection's OR candidate sets outgrow the limit, so
	// Continue must hold strictly fewer.
	if or <= float64(res.AccumLimit) || cont >= or {
		t.Errorf("Continue holds %.0f accumulators, OR %.0f (limit %d)", cont, or, res.AccumLimit)
	}
}

// TestORMatchesFrequencySortedExhaustive checks the identity E17's
// doc-sorted columns rest on: FULL reads every page of every query term,
// term by term in decreasing idf with ties broken by TermID — the pages
// and order of a term-at-a-time scan over document-ordered lists — and
// its accumulators and ranking are those of exhaustive term-at-a-time
// OR evaluation, computed here from the lists directly.
func TestORMatchesFrequencySortedExhaustive(t *testing.T) {
	env := newTinyEnv(t)
	seq, err := env.Sequence(0, refine.AddOnly)
	if err != nil {
		t.Fatal(err)
	}
	full := eval.Params{TopN: env.Params().TopN}
	for ri, q := range seq.Refinements {
		res, err := env.EvaluateCold(eval.DF, q, full)
		if err != nil {
			t.Fatal(err)
		}
		ordered := slices.Clone(q)
		slices.SortFunc(ordered, func(a, b eval.QueryTerm) int {
			if c := cmp.Compare(env.Idx.IDF(b.Term), env.Idx.IDF(a.Term)); c != 0 {
				return c
			}
			return cmp.Compare(a.Term, b.Term)
		})
		if len(res.Trace) != len(ordered) {
			t.Fatalf("refinement %d: %d rounds for %d terms", ri, len(res.Trace), len(ordered))
		}
		acc := make(map[postings.DocID]float64)
		for i, qt := range ordered {
			tr := res.Trace[i]
			if tr.Term != qt.Term || tr.PagesProcessed != tr.ListPages {
				t.Fatalf("refinement %d round %d: term %d read %d/%d pages, want term %d in full",
					ri, i, tr.Term, tr.PagesProcessed, tr.ListPages, qt.Term)
			}
			tm := &env.Idx.Terms[qt.Term]
			wqt := rank.QueryWeight(qt.Fqt, tm.IDF)
			for _, en := range postings.ListPostings(env.Pages, env.Idx, qt.Term) {
				acc[en.Doc] += rank.DocWeight(en.Freq, tm.IDF) * wqt
			}
		}
		if res.Accumulators != len(acc) {
			t.Errorf("refinement %d: FULL holds %d accumulators, OR %d", ri, res.Accumulators, len(acc))
		}
		if want := rank.TopN(acc, env.Idx.DocLen, full.TopN); !slices.Equal(res.Top, want) {
			t.Errorf("refinement %d: FULL ranking %v, OR %v", ri, res.Top, want)
		}
	}
}

func TestWebLegendExperiment(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunWebLegend(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads["WEB"] >= res.Reads["DF"] {
		t.Errorf("WEB read %d >= DF %d; the legend is supposed to be fast", res.Reads["WEB"], res.Reads["DF"])
	}
	if res.IgnoredTerms == 0 || res.IgnoredRefinements == 0 {
		t.Error("WEB never ignored a term; the cautionary tale did not materialize")
	}
	if res.MeanAP["WEB"] > res.MeanAP["DF"]+1e-9 {
		t.Errorf("WEB effectiveness %.4f should not exceed DF %.4f", res.MeanAP["WEB"], res.MeanAP["DF"])
	}
}

func TestBooleanExperiment(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunBoolean(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		// AND is a subset of OR by construction.
		if row.AndSize > row.OrSize {
			t.Errorf("topic %d: AND size %d > OR size %d", row.TopicID, row.AndSize, row.OrSize)
		}
		for _, p := range []float64{row.AndPrecision, row.OrPrecision, row.RankedP20} {
			if p < 0 || p > 1 {
				t.Errorf("topic %d: precision %g out of range", row.TopicID, p)
			}
		}
	}
	// The motivation should materialize: OR sets are unmanageable on
	// average (far beyond what a user inspects).
	if res.MeanOrSize < 50 {
		t.Errorf("mean OR size %.0f suspiciously small", res.MeanOrSize)
	}
	// Ranked precision@20 should beat OR-set precision comfortably.
	if res.MeanP20 <= res.MeanOrPrec {
		t.Errorf("ranked P@20 %.3f <= OR precision %.3f", res.MeanP20, res.MeanOrPrec)
	}
}

// TestBooleanOperators checks E19's answer sets against the raw
// collection: AND is the documents in all three of a topic's strongest
// terms, OR the documents in any of them, and each precision is the
// relevant share of its set.
func TestBooleanOperators(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunBoolean(0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[int]BooleanRow, len(res.Rows))
	for _, row := range res.Rows {
		rows[row.TopicID] = row
	}
	for ti, topic := range env.Col.Topics {
		ranked, err := env.RankedTerms(ti)
		if err != nil {
			t.Fatal(err)
		}
		row, ok := rows[topic.ID]
		if len(ranked) < 3 {
			if ok {
				t.Errorf("topic %d: row for a topic with %d terms", topic.ID, len(ranked))
			}
			continue
		}
		if !ok {
			t.Fatalf("topic %d: no row", topic.ID)
		}
		and, or := map[postings.DocID]bool{}, map[postings.DocID]bool{}
		for i := 0; i < 3; i++ {
			in := map[postings.DocID]bool{}
			for _, en := range env.Col.Lists[ranked[i].Term].Entries {
				in[en.Doc], or[en.Doc] = true, true
			}
			if i == 0 {
				and = in
				continue
			}
			for d := range and {
				if !in[d] {
					delete(and, d)
				}
			}
		}
		prec := func(set map[postings.DocID]bool) float64 {
			hits := 0
			for d := range set {
				if env.Rel[ti][d] {
					hits++
				}
			}
			if len(set) == 0 {
				return 0
			}
			return float64(hits) / float64(len(set))
		}
		if row.AndSize != len(and) || row.OrSize != len(or) {
			t.Errorf("topic %d: sizes AND %d OR %d, want %d and %d", topic.ID, row.AndSize, row.OrSize, len(and), len(or))
		}
		if row.AndPrecision != prec(and) || row.OrPrecision != prec(or) {
			t.Errorf("topic %d: precision AND %g OR %g, want %g and %g",
				topic.ID, row.AndPrecision, row.OrPrecision, prec(and), prec(or))
		}
	}
}

func TestDualBufExperiment(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunDualBuf()
	if err != nil {
		t.Fatal(err)
	}
	// The dual pools must protect the standing short query better than
	// the single pools (fewer short-query reads).
	for _, dual := range []string{"dual/LRU+LRU", "dual/LRU+RAP"} {
		for _, single := range []string{"single/LRU", "single/RAP"} {
			if res.ShortReads[dual] > res.ShortReads[single] {
				t.Errorf("%s short reads %d > %s %d",
					dual, res.ShortReads[dual], single, res.ShortReads[single])
			}
		}
	}
	// The short query loads its pages at least once.
	if res.ShortReads["dual/LRU+RAP"] < res.ShortTerms {
		t.Errorf("short reads %d below term count %d", res.ShortReads["dual/LRU+RAP"], res.ShortTerms)
	}
}

// TestModeledResponseTime checks §2.4's argument for counting disk
// reads on a FULL vs DF comparison: filtering must cut both the disk
// and the CPU component of response time, pages read and entries
// processed (decompression and partial scores are proportional to
// pages read).
func TestModeledResponseTime(t *testing.T) {
	env := newTinyEnv(t)
	q := env.Queries[0]
	full, err := env.EvaluateCold(eval.DF, q, eval.Params{TopN: 20})
	if err != nil {
		t.Fatal(err)
	}
	df, err := env.EvaluateCold(eval.DF, q, env.Params())
	if err != nil {
		t.Fatal(err)
	}
	if df.PagesRead >= full.PagesRead {
		t.Errorf("DF read %d pages >= FULL %d", df.PagesRead, full.PagesRead)
	}
	if df.EntriesProcessed >= full.EntriesProcessed {
		t.Errorf("DF processed %d entries >= FULL %d (CPU should fall with reads)",
			df.EntriesProcessed, full.EntriesProcessed)
	}
}

// TestAllFormatsRender drives every experiment's Format method and
// sanity-checks the rendered output (non-empty, mentions its subject).
func TestAllFormatsRender(t *testing.T) {
	env := newTinyEnv(t)
	type run struct {
		name   string
		header string
		f      func() (interface{ Format(io.Writer) }, error)
	}
	runs := []run{
		{"baselines", "Baseline policies", func() (interface{ Format(io.Writer) }, error) { return env.RunBaselines(3) }},
		{"boolean", "Boolean vs ranked", func() (interface{ Format(io.Writer) }, error) { return env.RunBoolean(3) }},
		{"compression", "Compression", func() (interface{ Format(io.Writer) }, error) { return env.RunCompression() }},
		{"docsorted", "Doc-sorted baseline", func() (interface{ Format(io.Writer) }, error) { return env.RunDocSorted(3) }},
		{"dualbuf", "Dual buffering", func() (interface{ Format(io.Writer) }, error) { return env.RunDualBuf() }},
		{"feedback", "Relevance-feedback", func() (interface{ Format(io.Writer) }, error) { return env.RunFeedback(0, 3) }},
		{"weblegend", "Web-search legend", func() (interface{ Format(io.Writer) }, error) { return env.RunWebLegend(2) }},
	}
	for _, r := range runs {
		res, err := r.f()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var buf bytes.Buffer
		res.Format(&buf)
		out := buf.String()
		if len(out) < 40 {
			t.Errorf("%s: output suspiciously short: %q", r.name, out)
		}
		if !strings.Contains(out, r.header) {
			t.Errorf("%s: output missing header %q", r.name, r.header)
		}
	}
}
