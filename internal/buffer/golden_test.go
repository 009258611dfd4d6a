package buffer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// The goldens pin the one thing a rewrite of RAP's ordering structure
// must not move: which page is evicted, every time. Each record is the
// victim sequence of one seeded single-threaded trace — the first
// victims as literal page ids, all of them as an FNV-64a hash — with
// the counters and the final resident set. They were recorded from the
// frame-heap RAP (one container/heap over every frame, re-initialized
// by each SetQuery, weights read through a closure per frame) and are
// compared literally; regenerate with
//
//	go test ./internal/buffer -run TestGoldenVictims -update
//
// only when a policy's eviction rule is changed on purpose.
var update = flag.Bool("update", false, "rewrite testdata/golden_*.json from the current policies")

var goldenPolicies = []struct {
	name string
	make func(capacity int) Policy
}{
	{"RAP", func(int) Policy { return NewRAP() }},
	{"RAP-headfirst", func(int) Policy { return NewRAPHeadFirst() }},
	{"ADAPTIVE", func(capacity int) Policy { return NewAdaptive(capacity) }},
}

var (
	goldenPools  = []int{4, 64, 512}
	goldenShards = []int{1, 2}
	goldenUsers  = []int{1, 4, 16}
)

// goldenHead is how many victims a record keeps as literal page ids.
const goldenHead = 40

type goldenRecord struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Evictions   int64   `json:"evictions"`
	NoVictim    int     `json:"no_victim"`    // fetches refused because the shard was fully pinned
	FailedLoads int     `json:"failed_loads"` // Admitted then Removed, never Touched
	PinnedSkips int     `json:"pinned_skips"` // Victim calls made while a frame of that pool was pinned
	Victims     int     `json:"victims"`
	VictimSig   string  `json:"victim_sig"`   // FNV-64a of every victim's page id in order, hex
	ResidentSig string  `json:"resident_sig"` // FNV-64a of the final resident set in page order, hex
	Head        []int32 `json:"head"`         // the first goldenHead victims
}

// goldenIndex is the collection the traces run on: page size 4, 20
// long lists (20–43 pages), 40 medium ones (3–10 pages) and 60
// single-page terms — 1 000-odd pages, twice the largest pool. Within
// a list the frequencies fall in plateaus, so neighbouring pages share
// a w* and the tail of every list is a run of f=1 pages; terms of
// equal length share an idf, so pages of different terms tie too. Both
// tie-break keys (offset, then page id) therefore decide victims.
func goldenIndex(t testing.TB) (*postings.Index, [][]postings.Entry) {
	t.Helper()
	const numDocs = 400
	var lists []postings.TermPostings
	add := func(kind string, i, pages int) {
		n := pages*4 - i%3 // last page partly filled for two terms in three
		if n < 1 {
			n = 1
		}
		entries := make([]postings.Entry, n)
		top := int32(3 + (i*7)%11)
		for j := range entries {
			f := top - int32(j/(5+i%4))
			if f < 1 {
				f = 1
			}
			entries[j] = postings.Entry{Doc: postings.DocID((j*7 + i) % numDocs), Freq: f}
		}
		// (j*7+i) mod 400 is injective in j for j < 400: 7 is coprime to 400.
		lists = append(lists, postings.TermPostings{Name: fmt.Sprintf("%s%02d", kind, i), Entries: entries})
	}
	for i := 0; i < 20; i++ {
		add("long", i, 20+(i*5)%24)
	}
	for i := 0; i < 40; i++ {
		add("mid", i, 3+i%8)
	}
	for i := 0; i < 60; i++ {
		add("one", i, 1)
	}
	ix, pages, err := postings.Build(lists, numDocs, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ix, pages
}

// nthReadFails fails every period-th read with a permanent-classified
// error, so the load is never retried and the frame reserved for it is
// withdrawn: the policy sees Admitted, then Removed.
type nthReadFails struct {
	inner  PageReader
	period int
	reads  int
}

func (s *nthReadFails) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	s.reads++
	if s.reads%s.period == 0 {
		return nil, permErr{}
	}
	return s.inner.ReadContext(ctx, id)
}

// victimLog records what Victim returns, in call order. Managers call
// one shard's policy at a time and the traces are single-threaded, so
// the shared slice needs no lock.
type victimLog struct {
	Policy
	out     *[]postings.PageID
	anyPins func() bool
	skips   *int
}

// touchingVictimLog is victimLog over a policy that hits inform.
type touchingVictimLog struct {
	victimLog
	toucher
}

func (v victimLog) Victim() *Frame {
	if v.anyPins() {
		*v.skips++
	}
	f := v.Policy.Victim()
	if f != nil {
		*v.out = append(*v.out, f.Page)
	}
	return f
}

// goldenUser is one simulated session: a query it refines step by
// step and a scan cursor over one of its terms' lists.
type goldenUser struct {
	query  QueryWeights
	term   postings.TermID
	offset int
	limit  int
}

// runGoldenTrace drives one pool through a seeded stream of
// announcements (ADD, DROP to absent, DROP to an explicit 0, reweight),
// list scans, random fetches, pins held across evictions, failed
// loads, Flush and Close, and returns the record. Every step draws the
// same number of random values whatever the pool answers, so a wrong
// victim changes the outcome of later steps but not the stream itself.
func runGoldenTrace(t testing.TB, ix *postings.Index, pages [][]postings.Entry, name string,
	mk func(int) Policy, capacity, nshards, nusers int) goldenRecord {
	t.Helper()
	ops := 4000
	if capacity > 64 {
		ops = 24000 // long enough to fill 512 frames several times over
	}
	rec := goldenRecord{Name: name, Ops: ops}
	var victims []postings.PageID
	var held []*Frame
	store := &nthReadFails{inner: storage.NewStore(pages), period: 61}
	sp, err := NewShardedSharedPool(capacity, nshards, store, ix, func(c int) Policy {
		pol := mk(c)
		v := victimLog{Policy: pol, out: &victims, anyPins: func() bool { return len(held) > 0 }, skips: &rec.PinnedSkips}
		if t, ok := pol.(toucher); ok {
			return touchingVictimLog{v, t}
		}
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sp.Manager()
	// One user announces straight to the manager, as a private Session
	// pool does; several go through their views and the registry.
	announce := func(u int, w QueryWeights) {
		if nusers == 1 {
			mgr.SetQuery(w)
		} else if w == nil {
			sp.UserView(u).Close()
		} else {
			sp.UserView(u).SetQuery(w)
		}
	}

	r := rand.New(rand.NewSource(int64(capacity)*1000 + int64(nshards)*100 + int64(nusers)))
	nterms := len(ix.Terms)
	users := make([]goldenUser, nusers)
	weightOf := func(tm postings.TermID, fqt int) float64 { return float64(fqt) * ix.IDF(tm) }
	refine := func(u *goldenUser, a, b, c int) {
		// A fresh map per announcement: the pool may keep the old one.
		next := make(QueryWeights, len(u.query)+3)
		for tm, w := range u.query {
			next[tm] = w
		}
		tm := postings.TermID(a % nterms)
		switch b % 6 {
		case 0, 1, 2: // ADD (or reweight a term already there)
			next[tm] = weightOf(tm, 1+c%3)
			tm2 := postings.TermID((a / 7) % nterms)
			next[tm2] = weightOf(tm2, 1+(c/3)%3)
		case 3: // DROP to absent: the first terms in id order
			n := 1 + c%2
			for id := postings.TermID(0); int(id) < nterms && n > 0; id++ {
				if _, ok := next[id]; ok {
					delete(next, id)
					n--
				}
			}
		case 4: // DROP to an explicit zero weight
			for id := postings.TermID(nterms - 1); id >= 0; id-- {
				if w, ok := next[id]; ok && w > 0 {
					next[id] = 0
					break
				}
			}
		case 5: // back from zero, or a new weight for the same term
			next[tm] = weightOf(tm, 3)
		}
		u.query = next
	}
	retarget := func(u *goldenUser, a, b int) {
		u.term = postings.TermID(a % nterms)
		if b%5 != 0 && len(u.query) > 0 {
			// Scan one of the user's own terms: the a-th in id order.
			k := a % len(u.query)
			for id := postings.TermID(0); int(id) < nterms; id++ {
				if _, ok := u.query[id]; ok {
					if k == 0 {
						u.term = id
						break
					}
					k--
				}
			}
		}
		u.offset = 0
		u.limit = 1 + b%ix.Terms[u.term].NumPages
	}
	for i := range users {
		for k := 0; k < 4; k++ {
			refine(&users[i], r.Intn(1<<20), 0, r.Intn(9))
		}
		announce(i, users[i].query)
		retarget(&users[i], r.Intn(1<<20), r.Intn(1<<20))
	}

	// Two held pins can fill a 2-frame shard: those fetches are refused
	// and counted, the legal outcome.
	const maxHeld = 2
	for op := 0; op < ops; op++ {
		kind, ui := r.Intn(1000), r.Intn(nusers)
		a, b, c := r.Intn(1<<20), r.Intn(1<<20), r.Intn(1<<20)
		u := &users[ui]
		switch {
		case op%(ops/3) == ops/3-1: // three flushes per trace
			for _, f := range held {
				mgr.Unpin(f)
			}
			held = held[:0]
			mgr.Flush()
		case kind < 70:
			refine(u, a, b, c)
			announce(ui, u.query)
		case kind < 78:
			announce(ui, nil) // the session ends; its next refinement re-registers it
		case kind < 120 && len(held) > 0:
			i := a % len(held)
			mgr.Unpin(held[i])
			held = append(held[:i], held[i+1:]...)
		default:
			var id postings.PageID
			if kind < 200 {
				id = postings.PageID(a % ix.NumPagesTotal)
			} else {
				if u.offset >= u.limit {
					retarget(u, a, b)
				}
				id = ix.PageOf(u.term, u.offset)
				u.offset++
			}
			f, _, err := mgr.FetchContext(context.Background(), id)
			switch {
			case errors.Is(err, ErrNoVictim):
				rec.NoVictim++
			case err != nil:
				var pe permErr
				if !errors.As(err, &pe) {
					t.Fatalf("%s op %d: fetch page %d: %v", name, op, id, err)
				}
				rec.FailedLoads++
			case c%16 == 0 && len(held) < maxHeld:
				held = append(held, f)
			default:
				mgr.Unpin(f)
			}
		}
	}
	for _, f := range held {
		mgr.Unpin(f)
	}
	held = nil

	s := mgr.Stats()
	rec.Hits, rec.Misses, rec.Evictions = s.Hits, s.Misses, s.Evictions
	rec.Victims = len(victims)
	sig := newFNV()
	for i, p := range victims {
		sig.mix(uint64(p))
		if i < goldenHead {
			rec.Head = append(rec.Head, int32(p))
		}
	}
	rec.VictimSig = sig.hex()
	res := newFNV()
	for p := 0; p < ix.NumPagesTotal; p++ {
		if mgr.Contains(postings.PageID(p)) {
			res.mix(uint64(p))
		}
	}
	rec.ResidentSig = res.hex()
	return rec
}

type fnv64a uint64

func newFNV() *fnv64a { h := fnv64a(14695981039346656037); return &h }

func (h *fnv64a) mix(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv64a(v&0xff)) * 1099511628211
		v >>= 8
	}
}

func (h *fnv64a) hex() string { return fmt.Sprintf("%016x", uint64(*h)) }

// TestGoldenVictims replays every (policy × pool × latch shards ×
// users) trace and compares its record with testdata literally. The
// policies' sweeps share nothing but the read-only index, so they run
// in parallel.
func TestGoldenVictims(t *testing.T) {
	ix, pages := goldenIndex(t)
	for _, pol := range goldenPolicies {
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			var got []goldenRecord
			for _, capacity := range goldenPools {
				for _, nshards := range goldenShards {
					for _, nusers := range goldenUsers {
						name := fmt.Sprintf("%s/pool%d/shards%d/users%d", pol.name, capacity, nshards, nusers)
						got = append(got, runGoldenTrace(t, ix, pages, name, pol.make, capacity, nshards, nusers))
					}
				}
			}
			path := filepath.Join("testdata", "golden_"+strings.ToLower(strings.ReplaceAll(pol.name, "-", "_"))+".json")
			if *update {
				// One record per line, so a diff names the traces that moved.
				var buf bytes.Buffer
				for i, rec := range got {
					line, err := json.Marshal(rec)
					if err != nil {
						t.Fatal(err)
					}
					sep := ",\n"
					if i == 0 {
						sep = "[\n"
					}
					buf.WriteString(sep)
					buf.Write(line)
				}
				buf.WriteString("\n]\n")
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want []goldenRecord
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if len(want) != len(got) {
				t.Fatalf("%s holds %d records, the sweep produced %d", path, len(want), len(got))
			}
			for i := range got {
				g, _ := json.Marshal(got[i])
				w, _ := json.Marshal(want[i])
				if !bytes.Equal(g, w) {
					t.Errorf("%s:\n got  %s\n want %s", got[i].Name, g, w)
				}
			}
		})
	}
}
