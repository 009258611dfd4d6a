package livedex

import (
	"fmt"
	"reflect"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
	"bufir/internal/storage/storetest"
)

// overlayFactory serves the reference pages through a commit's store:
// it splits the collection behind them into a main generation and a
// delta holding the last documents, commits, and checks that the
// store's pages — some of them merged — equal the reference. livedex's
// bit-identity with a rebuild is what makes them equal.
func overlayFactory(tb testing.TB, ix *postings.Index, pages [][]postings.Entry) storage.PageStore {
	tb.Helper()
	// The main generation keeps the reference's term order, so the
	// delta must add no term (a new one would take a later TermID): it
	// starts past every term's first document.
	lists := make([]postings.TermPostings, len(ix.Terms))
	split := 0
	for t, tm := range ix.Terms {
		lists[t].Name = tm.Name
		first := ix.NumDocs
		for p := 0; p < tm.NumPages; p++ {
			for _, e := range pages[tm.FirstPage+postings.PageID(p)] {
				lists[t].Entries = append(lists[t].Entries, e)
				first = min(first, int(e.Doc))
			}
		}
		split = max(split, first+1)
	}
	if split >= ix.NumDocs {
		tb.Fatal("the last document holds a term no earlier one has")
	}
	delta := make([]map[string]int, ix.NumDocs-split)
	for i := range delta {
		delta[i] = map[string]int{}
	}
	for t := range lists {
		main := lists[t].Entries[:0]
		for _, e := range lists[t].Entries {
			if int(e.Doc) < split {
				main = append(main, e)
			} else {
				delta[int(e.Doc)-split][lists[t].Name] = int(e.Freq)
			}
		}
		lists[t].Entries = main
	}
	mainIx, mainPages, err := postings.Build(lists, split, ix.PageSize)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewState(mainIx, storage.NewStore(mainPages), mainPages)
	if err != nil {
		tb.Fatal(err)
	}
	for i, counts := range delta {
		if _, err := s.AddDoc(fmt.Sprintf("doc%d", split+i), counts); err != nil {
			tb.Fatal(err)
		}
	}
	c, err := s.Commit()
	if err != nil {
		tb.Fatal(err)
	}
	touched := false
	for t, tm := range c.Meta.Terms {
		touched = touched || tm.DF != mainIx.Terms[t].DF
	}
	if !touched {
		tb.Fatal("no touched term: the store would serve main pages only")
	}
	ov := NewOverlay(c, s.MainIndex(), s.MainStore())
	if ov.NumPages() != len(pages) {
		tb.Fatalf("commit store has %d pages, reference %d", ov.NumPages(), len(pages))
	}
	for id := range pages {
		got, err := ov.ReadQuiet(postings.PageID(id))
		if err != nil {
			tb.Fatal(err)
		}
		if !reflect.DeepEqual(got, pages[id]) {
			tb.Fatalf("commit page %d differs from the reference", id)
		}
	}
	return ov
}

// TestOverlayConformance holds the store a live commit publishes to
// the PageStore contract the simulator and the file backends meet.
func TestOverlayConformance(t *testing.T) {
	storetest.Run(t, overlayFactory)
}
