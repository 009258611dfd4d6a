package storage

import (
	"context"
	"errors"
	"sync"
	"testing"

	"bufir/internal/postings"
)

func newTestStore() *Store {
	pages := [][]postings.Entry{
		{{Doc: 0, Freq: 3}},
		{{Doc: 1, Freq: 2}},
		{{Doc: 2, Freq: 1}},
	}
	return NewStore(pages)
}

func TestReadCountsAndContent(t *testing.T) {
	s := newTestStore()
	if s.NumPages() != 3 {
		t.Fatalf("NumPages = %d", s.NumPages())
	}
	page, err := read(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 1 || page[0].Doc != 1 {
		t.Errorf("page content = %v", page)
	}
	if s.Reads() != 1 {
		t.Errorf("Reads = %d, want 1", s.Reads())
	}
	s.ResetReads()
	if s.Reads() != 0 {
		t.Error("ResetReads failed")
	}
}

func TestReadQuietUncounted(t *testing.T) {
	s := newTestStore()
	if _, err := s.ReadQuiet(0); err != nil {
		t.Fatal(err)
	}
	if s.Reads() != 0 {
		t.Errorf("ReadQuiet counted: Reads = %d", s.Reads())
	}
	if _, err := s.ReadQuiet(99); err == nil {
		t.Error("out-of-range ReadQuiet should fail")
	}
}

func TestReadOutOfRange(t *testing.T) {
	s := newTestStore()
	if _, err := read(s, -1); err == nil {
		t.Error("negative page should fail")
	}
	if _, err := read(s, 3); err == nil {
		t.Error("page 3 should fail")
	}
	if s.Reads() != 0 {
		t.Error("failed reads must not be counted")
	}
}

// read is one counted read under a background context.
func read(s PageStore, id postings.PageID) ([]postings.Entry, error) {
	return s.ReadContext(context.Background(), id)
}

// TestFaultInjection: every second read of each page fails, and the
// faulted reads never reach the inner store's counter.
func TestFaultInjection(t *testing.T) {
	s := newFaultStore(t, 1, "transient:every=2")
	var faults, ok int
	for i := 0; i < 10; i++ { // page 0 four times, pages 1 and 2 three times
		_, err := read(s, postings.PageID(i%3))
		switch {
		case errors.Is(err, ErrInjectedFault):
			faults++
		case err == nil:
			ok++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if faults != 4 || ok != 6 {
		t.Errorf("faults=%d ok=%d, want 4/6 (reads #2 and #4 of page 0, #2 of pages 1 and 2)", faults, ok)
	}
	if s.Reads() != 6 {
		t.Errorf("Reads = %d, want 6 (faulted reads uncounted)", s.Reads())
	}
}

func TestConcurrentReads(t *testing.T) {
	s := newTestStore()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := read(s, postings.PageID((w+i)%3)); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Reads(); got != workers*perWorker {
		t.Errorf("Reads = %d, want %d", got, workers*perWorker)
	}
}
