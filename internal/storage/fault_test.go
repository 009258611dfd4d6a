package storage

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"bufir/internal/postings"
)

func newFaultStore(t *testing.T, seed uint64, spec string) *FaultStore {
	t.Helper()
	rules, err := ParseFaultSchedule(spec)
	if err != nil {
		t.Fatalf("ParseFaultSchedule(%q): %v", spec, err)
	}
	fs, err := NewFaultStore(newTestStore(), seed, rules)
	if err != nil {
		t.Fatalf("NewFaultStore(%q): %v", spec, err)
	}
	return fs
}

// readSeq reads every page `rounds` times and records, per read, whether
// it faulted — the fault fingerprint of a (schedule, seed) pair.
func readSeq(s *FaultStore, rounds int) []bool {
	var out []bool
	for r := 0; r < rounds; r++ {
		for p := 0; p < s.NumPages(); p++ {
			_, err := read(s, postings.PageID(p))
			out = append(out, err != nil)
		}
	}
	return out
}

func TestFaultScheduleDeterministic(t *testing.T) {
	spec := "transient:prob=0.5"
	a := readSeq(newFaultStore(t, 42, spec), 20)
	b := readSeq(newFaultStore(t, 42, spec), 20)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: run A faulted=%v, run B faulted=%v (same seed)", i, a[i], b[i])
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("prob=0.5 over %d reads produced %d faults — degenerate coin", len(a), faults)
	}
	c := readSeq(newFaultStore(t, 43, spec), 20)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced an identical fault fingerprint")
	}
}

func TestTransientFirstHealsAndStats(t *testing.T) {
	// First 2 reads of page 1 fail, then the page heals.
	fs := newFaultStore(t, 1, "transient:pages=1,first=2")
	for i := 0; i < 2; i++ {
		if _, err := read(fs, 1); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("read %d of page 1: err = %v, want injected fault", i+1, err)
		}
		if _, err := read(fs, 0); err != nil {
			t.Fatalf("page 0 should be clean: %v", err)
		}
	}
	if _, err := read(fs, 1); err != nil {
		t.Fatalf("page 1 should heal on read 3: %v", err)
	}
	// Only delivered pages count: 2 clean page-0 reads + 1 healed page-1.
	if got := fs.Reads(); got != 3 {
		t.Errorf("Reads = %d, want 3 (faulted reads must be uncounted)", got)
	}
	st := fs.FaultStats()
	if st.Transient != 2 || st.Permanent != 0 || st.Latency != 0 {
		t.Errorf("FaultStats = %+v, want 2 transient", st)
	}
}

func TestPermanentNeverHeals(t *testing.T) {
	fs := newFaultStore(t, 1, "permanent:pages=2")
	for i := 0; i < 5; i++ {
		_, err := read(fs, 2)
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("read %d: err = %v, want *FaultError", i+1, err)
		}
		if fe.Kind != FaultPermanent || !fe.PermanentFault() {
			t.Fatalf("read %d: classification wrong: %+v", i+1, fe)
		}
	}
	if _, err := read(fs, 0); err != nil {
		t.Fatalf("out-of-range page faulted: %v", err)
	}
}

func TestLatencySpikeDelaysNotFails(t *testing.T) {
	fs := newFaultStore(t, 1, "latency:spike=30ms")
	start := time.Now()
	if _, err := read(fs, 0); err != nil {
		t.Fatalf("latency fault must not error: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("read returned in %v, want >= 30ms spike", d)
	}
	if fs.FaultStats().Latency != 1 {
		t.Errorf("FaultStats = %+v, want 1 latency", fs.FaultStats())
	}
	if fs.Reads() != 1 {
		t.Errorf("Reads = %d, want 1 (spiked reads still deliver)", fs.Reads())
	}
}

func TestLatencySpikeHonorsContext(t *testing.T) {
	fs := newFaultStore(t, 1, "latency:spike=10s")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fs.ReadContext(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("abandoning the spike took %v", d)
	}
	if fs.Reads() != 0 {
		t.Errorf("abandoned read counted: Reads = %d", fs.Reads())
	}
}

// TestDeadContextSpendsNoFault: a read under an already-dead context
// fails with ctx.Err() before the schedule is consulted, so it neither
// injects nor uses up a fault — the first live read still gets it.
func TestDeadContextSpendsNoFault(t *testing.T) {
	fs := newFaultStore(t, 1, "transient:pages=0,first=1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fs.ReadContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context read: err = %v, want context.Canceled", err)
	}
	if st := fs.FaultStats(); st != (FaultStats{}) {
		t.Fatalf("dead-context read injected a fault: %+v", st)
	}
	var fe *FaultError
	if _, err := read(fs, 0); !errors.As(err, &fe) || fe.Ordinal != 1 {
		t.Fatalf("first live read: err = %v, want the transient fault at read #1", err)
	}
	if _, err := read(fs, 0); err != nil {
		t.Fatalf("second live read: %v", err)
	}
}

func TestReadQuietBypassesSchedule(t *testing.T) {
	fs := newFaultStore(t, 1, "permanent")
	if _, err := fs.ReadQuiet(0); err != nil {
		t.Fatalf("ReadQuiet must bypass the schedule: %v", err)
	}
	if _, err := read(fs, 0); err == nil {
		t.Fatal("counted read should fault under an all-pages permanent rule")
	}
	// ReadQuiet must not advance the per-page ordinal either: the first
	// COUNTED read of page 1 is ordinal 1.
	fs2 := newFaultStore(t, 1, "transient:first=1")
	for i := 0; i < 3; i++ {
		if _, err := fs2.ReadQuiet(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := read(fs2, 1); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("first counted read after quiet reads: err = %v, want fault (ordinal untouched)", err)
	}
}

func TestEveryNRule(t *testing.T) {
	fs := newFaultStore(t, 1, "transient:every=3")
	for i := 1; i <= 9; i++ {
		_, err := read(fs, 0)
		wantFault := i%3 == 0
		if (err != nil) != wantFault {
			t.Errorf("read %d: err = %v, want fault=%v", i, err, wantFault)
		}
	}
}

func TestOpenEndedRange(t *testing.T) {
	fs := newFaultStore(t, 1, "permanent:pages=1-")
	if _, err := read(fs, 0); err != nil {
		t.Fatalf("page 0 outside 1-: %v", err)
	}
	for p := 1; p < fs.NumPages(); p++ {
		if _, err := read(fs, postings.PageID(p)); err == nil {
			t.Errorf("page %d inside 1- did not fault", p)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	specs := []string{
		"transient",
		"transient:prob=0.01",
		"permanent:pages=7",
		"permanent:pages=3-",
		"transient:pages=2-9,first=2",
		"latency:prob=0.25,spike=5ms",
		"transient:every=10;permanent:pages=0;latency:spike=1ms",
	}
	for _, spec := range specs {
		rules, err := ParseFaultSchedule(spec)
		if err != nil {
			t.Errorf("ParseFaultSchedule(%q): %v", spec, err)
			continue
		}
		out := FormatFaultSchedule(rules)
		rules2, err := ParseFaultSchedule(out)
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", out, spec, err)
			continue
		}
		if fmt.Sprint(rules) != fmt.Sprint(rules2) {
			t.Errorf("round trip of %q changed rules:\n  %v\n  %v", spec, rules, rules2)
		}
	}
}

func TestParseFaultScheduleRejects(t *testing.T) {
	bad := []string{
		"",
		"meteor",
		"transient:prob=1.5",
		"transient:prob=x",
		"transient:pages=5-2",
		"transient:pages=-3",
		"transient:spike=5ms",     // spike on non-latency
		"latency",                 // latency without spike
		"latency:spike=-1ms",      // non-positive spike
		"permanent:first=2",       // permanent cannot take ordinals
		"permanent:every=2",       // ditto
		"transient:bogus=1",       // unknown option
		"transient:first=-1",      // negative ordinal selector
		"transient:pages=1-2-3",   // malformed range
		"transient:prob=0.5,prob", // option without value
	}
	for _, spec := range bad {
		if _, err := ParseFaultSchedule(spec); err == nil {
			t.Errorf("ParseFaultSchedule(%q) accepted, want error", spec)
		}
	}
}

// TestInjectedFaultsMatchSentinel: callers match any injected fault,
// whatever its kind, with errors.Is(err, ErrInjectedFault).
func TestInjectedFaultsMatchSentinel(t *testing.T) {
	for _, spec := range []string{"transient", "permanent"} {
		_, err := read(newFaultStore(t, 1, spec), 0)
		if !errors.Is(err, ErrInjectedFault) {
			t.Errorf("%s: err %v does not match ErrInjectedFault", spec, err)
		}
	}
}
