package bufir

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The session goldens pin what the single-user surfaces produce, step
// by step: Session.SearchContext over a refinement sequence, and the
// refinement helper (refinement_test.go) walking the same sequence
// through AddContext/DropContext (its runs are named
// ".../refine/incremental=false", as recorded). Every cell of
// {DF, BAF, MAXSCORE} × {LRU, RAP} × {ADD-ONLY, ADD-DROP} runs on a
// fresh live index, and one Add publication lands mid-sequence, so
// rebinding to a new generation is pinned too. Each step records its
// ranking (an FNV-64a hash over every (doc, score bits) pair),
// PagesRead, EntriesProcessed and Epoch. Regenerate with
//
//	go test . -run TestSessionGoldens -update
//
// only when a session's evaluation or buffer behaviour is changed on
// purpose.
var update = flag.Bool("update", false, "rewrite testdata/golden_session.json (TestSessionGoldens) and api/*.txt (TestAPI) from the current code")

const (
	goldenSessionFile = "testdata/golden_session.json"
	// goldenSteps caps each sequence at its first refinements.
	goldenSteps = 6
	// goldenPublishAfter is the number of sequence positions evaluated
	// before the mid-sequence Add.
	goldenPublishAfter = 3
)

type goldenStep struct {
	Op        string `json:"op"` // search | start | add | drop
	Terms     int    `json:"terms"`
	TopLen    int    `json:"top_len"`
	TopSig    string `json:"top_sig"`
	PagesRead int    `json:"pages_read"`
	Entries   int    `json:"entries"`
	Epoch     uint64 `json:"epoch"`
}

type goldenRun struct {
	Name  string       `json:"name"`
	Steps []goldenStep `json:"steps"`
}

func topSig(res *Result) string {
	h := fnv.New64a()
	var b [12]byte
	for _, sd := range res.Top {
		binary.LittleEndian.PutUint32(b[:4], uint32(sd.Doc))
		binary.LittleEndian.PutUint64(b[4:], math.Float64bits(sd.Score))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenStepOf(op string, q Query, res *Result) goldenStep {
	return goldenStep{
		Op: op, Terms: len(q),
		TopLen: len(res.Top), TopSig: topSig(res),
		PagesRead: res.PagesRead, Entries: res.EntriesProcessed,
		Epoch: res.Epoch,
	}
}

func TestSessionGoldens(t *testing.T) {
	col, err := GenerateCollection(TinyCollectionConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	topic := col.Topics[2]
	tq, err := base.TopicQuery(topic)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := base.RankTermsByContribution(tq)
	if err != nil {
		t.Fatal(err)
	}
	// The published document repeats the strongest terms, so it
	// reshapes the rankings of every later step.
	var doc strings.Builder
	for i, rt := range ranked[:6] {
		for j := 0; j <= i%3; j++ {
			doc.WriteString(base.TermName(rt.Term) + " ")
		}
	}

	// fresh returns a live index over the collection and a session on it.
	fresh := func(t *testing.T, algo Algorithm, policy Policy) (*Index, *Session) {
		t.Helper()
		ix, err := NewIndex(col)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.EnableLiveUpdates(LiveOptions{}); err != nil {
			t.Fatal(err)
		}
		s, err := ix.NewSession(SessionConfig{
			EvalOptions: EvalOptions{Algorithm: algo, TopN: 10},
			Policy:      policy, BufferPages: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ix, s
	}
	publish := func(t *testing.T, ix *Index) {
		t.Helper()
		if _, err := ix.Add("golden", doc.String()); err != nil {
			t.Fatal(err)
		}
	}

	var runs []goldenRun
	ctx := context.Background()
	for _, kind := range []RefinementKind{AddOnly, AddDrop} {
		seq, err := BuildRefinementSequence(topic.ID, kind, ranked)
		if err != nil {
			t.Fatal(err)
		}
		refs := seq.Refinements
		if len(refs) > goldenSteps {
			refs = refs[:goldenSteps]
		}
		for _, algo := range []Algorithm{DF, BAF, Maxscore} {
			for _, policy := range []Policy{LRU, RAP} {
				cell := fmt.Sprintf("%s/%s/%s", kind, algo, policy)

				ix, s := fresh(t, algo, policy)
				run := goldenRun{Name: cell + "/search"}
				for i, q := range refs {
					if i == goldenPublishAfter {
						publish(t, ix)
					}
					res, err := s.SearchContext(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					run.Steps = append(run.Steps, goldenStepOf("search", q, res))
				}
				runs = append(runs, run)

				ix, s = fresh(t, algo, policy)
				run = goldenRun{Name: cell + "/refine/incremental=false"}
				ref, res, err := startRefinement(ctx, s, refs[0])
				if err != nil {
					t.Fatal(err)
				}
				record := func(op string, res *Result) {
					run.Steps = append(run.Steps, goldenStepOf(op, ref.Current(), res))
				}
				record("start", res)
				for i := 1; i < len(refs); i++ {
					if i == goldenPublishAfter {
						publish(t, ix)
					}
					add, drop := queryDelta(ref.Current(), refs[i])
					if len(add) > 0 {
						res, err := ref.AddContext(ctx, add...)
						if err != nil {
							t.Fatal(err)
						}
						record("add", res)
					}
					for _, term := range drop {
						res, err := ref.DropContext(ctx, term)
						if err != nil {
							t.Fatal(err)
						}
						record("drop", res)
					}
				}
				runs = append(runs, run)
			}
		}
	}

	if *update {
		out, err := json.MarshalIndent(runs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSessionFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSessionFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenSessionFile)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(runs) {
		t.Fatalf("%d golden runs, produced %d", len(want), len(runs))
	}
	for i := range want {
		w, g := want[i], runs[i]
		if w.Name != g.Name || len(w.Steps) != len(g.Steps) {
			t.Errorf("run %d: %s with %d steps, want %s with %d", i, g.Name, len(g.Steps), w.Name, len(w.Steps))
			continue
		}
		for j := range w.Steps {
			if w.Steps[j] != g.Steps[j] {
				t.Errorf("%s step %d:\n got %+v\nwant %+v", w.Name, j, g.Steps[j], w.Steps[j])
			}
		}
	}
}

// queryDelta returns what turns cur into next: terms to add (new terms,
// and frequency raises as the difference) and terms to drop.
func queryDelta(cur, next Query) (add []QueryTerm, drop []TermID) {
	had := make(map[TermID]int, len(cur))
	for _, qt := range cur {
		had[qt.Term] = qt.Fqt
	}
	keep := make(map[TermID]bool, len(next))
	for _, qt := range next {
		keep[qt.Term] = true
		if f := qt.Fqt - had[qt.Term]; f > 0 {
			add = append(add, QueryTerm{Term: qt.Term, Fqt: f})
		}
	}
	for _, qt := range cur {
		if !keep[qt.Term] {
			drop = append(drop, qt.Term)
		}
	}
	return add, drop
}
