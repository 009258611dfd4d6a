package storage

// Fault injection for the simulated disk. The paper's premise is that
// disk reads dominate query cost (§4.1); a production serving stack
// built on that premise must also survive the reads that FAIL. This
// file provides the chaos half of that story: a FaultStore wraps any
// PageStore and injects transient read errors, permanent page errors,
// and latency spikes according to a deterministic, seeded schedule, so
// a chaos run is exactly reproducible from (seed, schedule) no matter
// how goroutines interleave. It is also the simulated disk's clock: a
// latency rule with no selector (`latency:spike=d`) makes every read
// take d, the wall-clock form of the paper's per-read cost.
//
// Determinism comes from deciding every fault as a pure function of
// (seed, rule, page, per-page read ordinal): the n-th read of a page
// faults or not regardless of which session issues it or when. Under
// concurrency the assignment of faults to sessions still varies — the
// SEQUENCE of faults per page does not, which is what makes counter
// invariants checkable after a chaos run.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bufir/internal/postings"
)

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// FaultTransient is a read error that a retry may outlive: the rule
	// decides per read ordinal, so a later read of the same page can
	// succeed. Models a bad sector remap, a dropped interrupt, a
	// briefly-saturated controller.
	FaultTransient FaultKind = iota
	// FaultPermanent is a read error that never clears: every read of a
	// matching page fails for as long as the rule matches. Models real
	// media loss; retries are pointless and callers should degrade.
	FaultPermanent
	// FaultLatency is not an error at all: the read succeeds after an
	// extra Spike of simulated latency. Models a slow path — a
	// congested queue, a read served from a degraded replica — or,
	// firing on every read, the simulated disk's own read time.
	FaultLatency
)

// String returns the schedule-syntax name of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultLatency:
		return "latency"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultRule is one line of a fault schedule. A rule applies to a page
// range and fires on a subset of that range's reads, selected by any
// combination of First (only the first K reads of each page), EveryN
// (every n-th read of a page), and Prob (an independent seeded coin per
// read). A rule with none of the three selectors set fires on every
// matching read.
type FaultRule struct {
	Kind FaultKind
	// FirstPage and LastPage bound the rule's page range, inclusive.
	// LastPage < 0 means "to the end of the store"; the zero value
	// (0, 0) therefore targets only page 0 — use NewFaultRule or the
	// schedule syntax's absent pages= key for an all-pages rule.
	FirstPage, LastPage int
	// First, when > 0, restricts the rule to each page's first First
	// reads — the canonical transient shape: "the first 2 reads of
	// every page in the range fail, then the page heals".
	First int64
	// EveryN, when > 0, fires on every EveryN-th read of a page.
	EveryN int64
	// Prob, when > 0, fires with this probability per read, decided by
	// a hash of (seed, rule, page, ordinal) — deterministic, not
	// sampled.
	Prob float64
	// Spike is the extra simulated latency of a FaultLatency rule.
	Spike time.Duration
}

// NewFaultRule returns an all-pages rule of the given kind.
func NewFaultRule(kind FaultKind) FaultRule {
	return FaultRule{Kind: kind, FirstPage: 0, LastPage: -1}
}

// matches reports whether the rule covers page id.
func (r FaultRule) matches(id postings.PageID) bool {
	if int(id) < r.FirstPage {
		return false
	}
	return r.LastPage < 0 || int(id) <= r.LastPage
}

// validate checks rule sanity (shared by ParseFaultSchedule and
// NewFaultStore).
func (r FaultRule) validate() error {
	switch r.Kind {
	case FaultTransient, FaultPermanent, FaultLatency:
	default:
		return fmt.Errorf("storage: unknown fault kind %d", int(r.Kind))
	}
	if r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob) {
		return fmt.Errorf("storage: fault probability %v outside [0,1]", r.Prob)
	}
	if r.First < 0 {
		return fmt.Errorf("storage: fault first=%d < 0", r.First)
	}
	if r.EveryN < 0 {
		return fmt.Errorf("storage: fault every=%d < 0", r.EveryN)
	}
	if r.LastPage >= 0 && r.FirstPage > r.LastPage {
		return fmt.Errorf("storage: fault page range %d-%d inverted", r.FirstPage, r.LastPage)
	}
	if r.FirstPage < 0 {
		return fmt.Errorf("storage: fault page range starts at %d < 0", r.FirstPage)
	}
	if r.Kind == FaultLatency && r.Spike <= 0 {
		return errors.New("storage: latency rule requires spike > 0")
	}
	if r.Kind != FaultLatency && r.Spike != 0 {
		return fmt.Errorf("storage: spike= is only valid on latency rules, not %v", r.Kind)
	}
	if r.Kind == FaultPermanent && (r.First > 0 || r.EveryN > 0) {
		// A "permanent" fault capped to some ordinals is a transient
		// fault wearing the wrong label; reject the contradiction so
		// schedules say what they mean.
		return errors.New("storage: permanent rule cannot set first= or every= (use transient)")
	}
	return nil
}

// fires reports whether the rule fires on the n-th (1-based) read of
// page id under the given seed and rule index.
func (r FaultRule) fires(seed uint64, ruleIdx int, id postings.PageID, n int64) bool {
	if !r.matches(id) {
		return false
	}
	if r.First > 0 && n > r.First {
		return false
	}
	if r.EveryN > 0 && n%r.EveryN != 0 {
		return false
	}
	if r.Prob > 0 {
		return faultCoin(seed, ruleIdx, id, n) < r.Prob
	}
	return true
}

// faultCoin maps (seed, rule, page, ordinal) to a uniform [0,1) value
// via splitmix64 — a pure function, so schedules replay identically.
func faultCoin(seed uint64, ruleIdx int, id postings.PageID, n int64) float64 {
	x := seed
	x ^= uint64(ruleIdx)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9 + uint64(n)*0x94d049bb133111eb
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// FaultError is the error injected by a FaultStore. It matches
// ErrInjectedFault under errors.Is and carries the fault's
// classification. The buffer manager's retry path reads it through the
// PermanentFault marker method, without importing this package: a
// permanent fault is never retried, every other error is.
type FaultError struct {
	Page    postings.PageID
	Ordinal int64 // per-page read ordinal, 1-based
	Kind    FaultKind
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("storage: injected %v fault on page %d (read #%d)", e.Kind, e.Page, e.Ordinal)
}

// Is makes errors.Is(err, ErrInjectedFault) true for every FaultError.
func (e *FaultError) Is(target error) bool { return target == ErrInjectedFault }

// PermanentFault reports whether retries are futile for this page.
func (e *FaultError) PermanentFault() bool { return e.Kind == FaultPermanent }

// FaultStats counts the faults a FaultStore actually injected.
type FaultStats struct {
	Transient int64
	Permanent int64
	Latency   int64
}

// FaultStore wraps a PageStore with a deterministic fault schedule.
// Counted reads (ReadContext) are subject to the schedule;
// ReadQuiet bypasses it entirely — workload construction is offline
// and the paper does not charge (or fault) it. The inner store's read
// counter still counts only DELIVERED pages: an injected error fires
// before the inner read, so "successful store reads" keeps its meaning
// under chaos.
//
// FaultStore is safe for any degree of concurrency: the schedule is
// immutable and the per-page ordinals are atomics.
type FaultStore struct {
	inner PageStore
	// into is inner as an IntoReader, nil when it serves shared pages.
	into  IntoReader
	seed  uint64
	rules []FaultRule

	// ord[p] counts the counted reads attempted on page p (1-based
	// after Add); the schedule is a function of this ordinal.
	ord []atomic.Int64

	transient atomic.Int64
	permanent atomic.Int64
	latency   atomic.Int64
}

var (
	_ PageStore  = (*FaultStore)(nil)
	_ IntoReader = (*FaultStore)(nil)
)

// NewFaultStore wraps inner with the given schedule. The rules are
// validated and copied; seed fixes every probabilistic decision.
func NewFaultStore(inner PageStore, seed uint64, rules []FaultRule) (*FaultStore, error) {
	if inner == nil {
		return nil, errors.New("storage: nil inner store")
	}
	for i, r := range rules {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
	}
	into, _ := inner.(IntoReader)
	return &FaultStore{
		inner: inner,
		into:  into,
		seed:  seed,
		rules: append([]FaultRule(nil), rules...),
		ord:   make([]atomic.Int64, inner.NumPages()),
	}, nil
}

// NumPages returns the inner store's page count.
func (s *FaultStore) NumPages() int { return s.inner.NumPages() }

// ReadContext consults the schedule, then delegates: ReadInto with no
// slice to reuse.
func (s *FaultStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	entries, _, err := s.ReadInto(ctx, id, nil)
	return entries, err
}

// ReadInto consults the schedule, then delegates: to the inner store's
// ReadInto when it offers one, so the entries are owned exactly when
// the inner store decoded them, and to its ReadContext otherwise
// (shared pages, never owned; dst goes unused). An already-dead
// context fails first, consuming no ordinal. Latency rules sleep
// (context-aware) before the inner read; error rules fail without
// touching the inner store, so its read counter still means "pages
// delivered".
func (s *FaultStore) ReadInto(ctx context.Context, id postings.PageID, dst []postings.Entry) ([]postings.Entry, bool, error) {
	if int(id) < 0 || int(id) >= len(s.ord) {
		return nil, false, fmt.Errorf("storage: page %d out of range [0,%d)", id, len(s.ord))
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	n := s.ord[id].Add(1)
	var spike time.Duration
	for i, r := range s.rules {
		if !r.fires(s.seed, i, id, n) {
			continue
		}
		switch r.Kind {
		case FaultLatency:
			// Spikes accumulate across rules; the read still succeeds.
			spike += r.Spike
		case FaultTransient:
			s.transient.Add(1)
			return nil, false, &FaultError{Page: id, Ordinal: n, Kind: FaultTransient}
		case FaultPermanent:
			s.permanent.Add(1)
			return nil, false, &FaultError{Page: id, Ordinal: n, Kind: FaultPermanent}
		}
	}
	if spike > 0 {
		s.latency.Add(1)
		if done := ctx.Done(); done != nil {
			timer := time.NewTimer(spike)
			select {
			case <-timer.C:
			case <-done:
				timer.Stop()
				return nil, false, ctx.Err()
			}
		} else {
			time.Sleep(spike)
		}
	}
	if s.into != nil {
		return s.into.ReadInto(ctx, id, dst)
	}
	entries, err := s.inner.ReadContext(ctx, id)
	return entries, false, err
}

// ReadQuiet bypasses the schedule and the counters (offline path).
func (s *FaultStore) ReadQuiet(id postings.PageID) ([]postings.Entry, error) {
	return s.inner.ReadQuiet(id)
}

// Reads returns the inner store's successful-read counter.
func (s *FaultStore) Reads() int64 { return s.inner.Reads() }

// ResetReads zeroes the inner store's read counter. The fault
// ordinals are NOT reset: the schedule is a property of the store's
// lifetime, so resetting statistics between passes does not replay
// already-spent transients.
func (s *FaultStore) ResetReads() { s.inner.ResetReads() }

// FaultStats returns how many faults of each kind were injected.
func (s *FaultStore) FaultStats() FaultStats {
	return FaultStats{
		Transient: s.transient.Load(),
		Permanent: s.permanent.Load(),
		Latency:   s.latency.Load(),
	}
}

// ---------------------------------------------------------------------------
// Schedule syntax
//
//	schedule := rule (';' rule)*
//	rule     := kind [':' opt (',' opt)*]
//	kind     := "transient" | "permanent" | "latency"
//	opt      := "pages=" N ['-' N]   page range, inclusive (default all)
//	          | "prob=" F            per-read probability in [0,1]
//	          | "every=" N           every N-th read of a page
//	          | "first=" N           only each page's first N reads
//	          | "spike=" DURATION    latency rules: extra simulated latency
//
// Example: "transient:prob=0.01;permanent:pages=40-42;latency:every=64,spike=2ms"
// ---------------------------------------------------------------------------

// ParseFaultSchedule parses the textual schedule syntax above.
func ParseFaultSchedule(spec string) ([]FaultRule, error) {
	var rules []FaultRule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rule, err := parseFaultRule(part)
		if err != nil {
			return nil, fmt.Errorf("storage: fault rule %q: %w", part, err)
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, errors.New("storage: empty fault schedule")
	}
	return rules, nil
}

func parseFaultRule(s string) (FaultRule, error) {
	kindStr, opts, hasOpts := strings.Cut(s, ":")
	var rule FaultRule
	switch strings.TrimSpace(kindStr) {
	case "transient":
		rule = NewFaultRule(FaultTransient)
	case "permanent":
		rule = NewFaultRule(FaultPermanent)
	case "latency":
		rule = NewFaultRule(FaultLatency)
	default:
		return FaultRule{}, fmt.Errorf("unknown fault kind %q", strings.TrimSpace(kindStr))
	}
	if hasOpts {
		for _, opt := range strings.Split(opts, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return FaultRule{}, fmt.Errorf("option %q is not key=value", opt)
			}
			var err error
			switch key {
			case "pages":
				lo, hi, found := strings.Cut(val, "-")
				rule.FirstPage, err = strconv.Atoi(lo)
				if err != nil {
					return FaultRule{}, fmt.Errorf("pages=%q: %v", val, err)
				}
				if found {
					if hi == "" {
						rule.LastPage = -1 // "pages=N-": open end
					} else {
						rule.LastPage, err = strconv.Atoi(hi)
						if err != nil {
							return FaultRule{}, fmt.Errorf("pages=%q: %v", val, err)
						}
						if rule.LastPage < 0 {
							return FaultRule{}, fmt.Errorf("pages=%q: negative end", val)
						}
					}
				} else {
					rule.LastPage = rule.FirstPage
				}
			case "prob":
				rule.Prob, err = strconv.ParseFloat(val, 64)
				if err != nil {
					return FaultRule{}, fmt.Errorf("prob=%q: %v", val, err)
				}
			case "every":
				rule.EveryN, err = strconv.ParseInt(val, 10, 64)
				if err != nil {
					return FaultRule{}, fmt.Errorf("every=%q: %v", val, err)
				}
			case "first":
				rule.First, err = strconv.ParseInt(val, 10, 64)
				if err != nil {
					return FaultRule{}, fmt.Errorf("first=%q: %v", val, err)
				}
			case "spike":
				rule.Spike, err = time.ParseDuration(val)
				if err != nil {
					return FaultRule{}, fmt.Errorf("spike=%q: %v", val, err)
				}
				if rule.Spike <= 0 {
					return FaultRule{}, fmt.Errorf("spike=%q: must be positive", val)
				}
			default:
				return FaultRule{}, fmt.Errorf("unknown option %q", key)
			}
		}
	}
	if err := rule.validate(); err != nil {
		return FaultRule{}, err
	}
	return rule, nil
}

// FormatFaultSchedule renders rules in the schedule syntax, such that
// ParseFaultSchedule(FormatFaultSchedule(rules)) reproduces them (the
// round-trip property the fuzz target checks).
func FormatFaultSchedule(rules []FaultRule) string {
	parts := make([]string, 0, len(rules))
	for _, r := range rules {
		var opts []string
		switch {
		case r.FirstPage == 0 && r.LastPage < 0:
			// all pages: no pages= key
		case r.LastPage < 0:
			opts = append(opts, fmt.Sprintf("pages=%d-", r.FirstPage))
		case r.LastPage == r.FirstPage:
			opts = append(opts, fmt.Sprintf("pages=%d", r.FirstPage))
		default:
			opts = append(opts, fmt.Sprintf("pages=%d-%d", r.FirstPage, r.LastPage))
		}
		if r.Prob > 0 {
			opts = append(opts, "prob="+strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.EveryN > 0 {
			opts = append(opts, fmt.Sprintf("every=%d", r.EveryN))
		}
		if r.First > 0 {
			opts = append(opts, fmt.Sprintf("first=%d", r.First))
		}
		if r.Spike > 0 {
			opts = append(opts, "spike="+r.Spike.String())
		}
		s := r.Kind.String()
		if len(opts) > 0 {
			s += ":" + strings.Join(opts, ",")
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}
