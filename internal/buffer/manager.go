// Package buffer implements the server buffer manager of the paper's
// simulator (§4.1): a fixed-capacity pool of inverted-list pages with
// pluggable replacement policies (LRU, MRU, and the paper's
// Ranking-Aware Policy, RAP), pin/unpin semantics, per-term resident
// page counts (the b_t values the BAF algorithm inquires about, Figure
// 2 step 3(a)iii), and hit/miss/eviction accounting.
package buffer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bufir/internal/postings"
)

// PageReader is the storage surface the buffer manager needs: a
// counted page fetch that abandons the read (simulated latency
// included) when the caller's request is canceled or past its
// deadline. It is the read half of storage.PageStore, so every backend
// — the in-memory simulator, the file-backed store, and any
// fault-injection stack over them — plugs in unchanged.
type PageReader interface {
	ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error)
}

// Frame is a buffer slot holding one inverted-list page. Policy
// bookkeeping (list links, heap position, RAP group) is embedded so policies are
// allocation-free on the hot path.
type Frame struct {
	Page   postings.PageID
	Term   postings.TermID
	Offset int32   // page index within its term's list
	WStar  float64 // w*_{d,t}: max document weight on the page

	data []postings.Entry
	pin  int

	// loading is non-nil while the page is being read from storage
	// outside the shard latch and is closed when the read completes;
	// loadErr is set before the close on failure. Both are written
	// under the owning shard's mutex; waiters read loadErr only after
	// the channel closes (the close is the memory barrier).
	loading chan struct{}
	loadErr error
	// nonResident marks a frame whose load failed: its term's residency
	// count was surrendered at failure time (BAF's b_t must not count
	// data-less pages), so removal must not decrement it again.
	nonResident bool

	// intrusive doubly-linked list (LRU/MRU recency chain)
	prev, next *Frame
	// LRU-K priority-queue position
	heapIdx int
	// RAP term group holding the frame
	group *rapGroup
}

// Data returns the page's postings entries. Valid only while the
// frame is pinned.
func (f *Frame) Data() []postings.Entry { return f.data }

// Pinned reports whether the frame is currently pinned.
func (f *Frame) Pinned() bool { return f.pin > 0 }

// QueryWeights holds w_{q,t} for the terms of one query; a term that
// is absent weighs 0, and so does one whose entry is not positive. RAP
// uses the weights to value pages. A nil QueryWeights announces "no
// query" (the announcer withdraws); an empty one is a query without
// terms. The pool keeps the map until the announcer's next
// announcement and compares the two term by term, so the caller must
// not modify it after SetQuery.
type QueryWeights map[postings.TermID]float64

// TermWeight is one entry of a weight delta: the pool's combined
// w_{q,t} of Term — the highest weight any registered query gives it —
// is now Weight, 0 when no query holds the term any more.
type TermWeight struct {
	Term   postings.TermID
	Weight float64
}

// Policy is a buffer replacement policy. The Manager serializes all
// calls to one instance (each shard owns its own), so implementations
// need no internal locking.
type Policy interface {
	// Name identifies the policy ("LRU", "MRU", "RAP", ...).
	Name() string
	// Admitted is called when frame f is reserved for a page, before
	// the page is read. A load that fails is followed by Removed(f)
	// without any Touched in between.
	Admitted(f *Frame)
	// Touched is called on every buffer hit for f.
	Touched(f *Frame)
	// Removed is called when f leaves the pool (eviction, flush, or a
	// failed load).
	Removed(f *Frame)
	// Victim returns the frame the policy wants evicted, skipping
	// pinned frames; nil if every frame is pinned. The Manager calls
	// Removed on the returned frame.
	Victim() *Frame
	// SetQuery informs the policy that the registered queries changed:
	// each listed term's combined weight is now the one given, every
	// other term keeps the weight it had (0 before any call). The
	// Manager delivers every delta to every shard's instance, in the
	// order the changes were registered; the slice is valid only during
	// the call. Only RAP reacts: page replacement values depend on
	// w_{q,t}.
	SetQuery(changed []TermWeight)
}

// ErrNoVictim is returned by FetchContext when the page's shard is
// full and every frame in it is pinned.
var ErrNoVictim = errors.New("buffer: all frames pinned, cannot evict")

// Stats aggregates buffer-manager counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Manager is the buffer manager, safe for concurrent use. The pool's
// latch is partitioned by page-id hash, so parallel sessions scanning
// different pages latch different shards instead of convoying on one
// mutex. Each shard owns a fixed slice of the capacity and runs its
// own instance of the replacement policy over its own frames (policy
// callbacks stay single-threaded per shard, so policies need no
// internal locking).
//
// Two properties matter for the paper's experiments:
//
//   - Determinism: with a single shard and single-threaded access the
//     pool is the paper's serial buffer manager — hits, misses,
//     evictions and victims are a pure function of the access
//     sequence, so every serial experiment number is bit-for-bit
//     reproducible. The shard count only sets how many latches there
//     are; the load protocol below is the same at every value.
//   - I/O outside the latch: on a miss the shard reserves the frame
//     (pinned, marked loading), releases its latch, and only then
//     reads the page from storage. Concurrent requests for the same
//     page wait on the frame's loading channel and count as hits
//     (single-flight); requests for other pages of the same shard
//     proceed. This is what lets worker pools overlap simulated disk
//     latency, the dominant cost in the paper's model (§4.1).
//
// The per-term resident counts b_t (the BAF inquiry, Figure 2 step
// 3(a)iii) and the hit/miss/eviction counters are kept in atomics so
// they stay exact under parallelism.
type Manager struct {
	store  PageReader
	ix     *postings.Index
	shards []shard

	resident []atomic.Int32
	hits     atomic.Int64
	misses   atomic.Int64
	evicts   atomic.Int64

	// queries is the registry of announced queries (see announce).
	queries queryRegistry

	polName string

	// retry is the fault-tolerance policy of the load path (see
	// RetryPolicy). Written only by SetRetryPolicy at setup time.
	retry RetryPolicy
}

// shard is one latch domain: a capacity slice, its frames, and a
// private policy instance. All fields are guarded by mu.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   map[postings.PageID]*Frame
	policy   Policy

	// space, when non-nil, is closed (and replaced by nil) the next
	// time a frame of this shard becomes evictable — the broadcast that
	// wakes fetches parked in bounded-wait backpressure (VictimWait).
	// Lazily created: nil whenever nobody waits, so the signal costs a
	// nil check on the unpin path when backpressure is off.
	space chan struct{}
}

// spaceLocked returns the channel a backpressured fetch should wait
// on. Caller holds sh.mu.
func (sh *shard) spaceLocked() chan struct{} {
	if sh.space == nil {
		sh.space = make(chan struct{})
	}
	return sh.space
}

// signalSpaceLocked wakes every fetch waiting for an evictable frame.
// Caller holds sh.mu.
func (sh *shard) signalSpaceLocked() {
	if sh.space != nil {
		close(sh.space)
		sh.space = nil
	}
}

var _ Pool = (*Manager)(nil)

// NewManager creates a buffer manager of the given page capacity over
// the store, using metadata from ix to label frames with their term,
// list offset and w* value; its latch (and capacity) is split across
// nshards shards, nshards == 1 being the serial pool every experiment
// runs on. newPolicy must return a fresh policy instance per call —
// each shard runs its own, constructed with that shard's exact
// capacity slice (2Q and ADAPTIVE size their probation and ghost
// structures from it). capacity must be at least nshards so every
// shard can hold a page. Page ids map to shards by modulo, which
// stripes consecutive pages of one inverted list across all shards —
// exactly the layout that lets one list scan keep every latch domain
// busy.
func NewManager(capacity, nshards int, store PageReader, ix *postings.Index, newPolicy func(capacity int) Policy) (*Manager, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("buffer: shard count %d < 1", nshards)
	}
	if capacity < nshards {
		return nil, fmt.Errorf("buffer: capacity %d < shard count %d", capacity, nshards)
	}
	if store == nil {
		return nil, errors.New("buffer: nil store")
	}
	if newPolicy == nil {
		return nil, errors.New("buffer: nil policy factory")
	}
	m := &Manager{
		store:    store,
		ix:       ix,
		shards:   make([]shard, nshards),
		resident: make([]atomic.Int32, len(ix.Terms)),
	}
	m.queries.by = make(map[announcer]QueryWeights)
	m.queries.max = make(map[postings.TermID]float64)
	base, rem := capacity/nshards, capacity%nshards
	for i := range m.shards {
		cap := base
		if i < rem {
			cap++
		}
		pol := newPolicy(cap)
		if pol == nil {
			return nil, errors.New("buffer: policy factory returned nil")
		}
		if i == 0 {
			m.polName = pol.Name()
		}
		m.shards[i] = shard{
			capacity: cap,
			frames:   make(map[postings.PageID]*Frame, cap),
			policy:   pol,
		}
	}
	return m, nil
}

// shardOf maps a page to its latch domain.
func (m *Manager) shardOf(id postings.PageID) *shard {
	return &m.shards[int(uint64(id)%uint64(len(m.shards)))]
}

// Capacity returns the total pool size in pages.
func (m *Manager) Capacity() int {
	total := 0
	for i := range m.shards {
		total += m.shards[i].capacity
	}
	return total
}

// Policy returns the replacement policy's name.
func (m *Manager) Policy() string { return m.polName }

// FetchContext fixes page id in the pool, loading it from the store on
// a miss (evicting a victim first if its shard is full), and returns
// the pinned frame plus a miss report: true when this call initiated
// the disk read. The caller must Unpin the frame. A caller that waits
// for another session's in-flight read of the same page is a hit: the
// page costs one read no matter how many sessions arrive while it
// loads. Evaluators count misses from the flag — never from shared
// Stats deltas — so per-session read counts stay exact on a shared
// pool.
//
// A dead context fails before taking any latch. Cancellation interacts
// with single-flight loading in four ways:
//
//   - A loader (the session that initiated the read) honors its own
//     context: the storage read aborts mid-latency, the provisional
//     miss is undone, and the frame is poisoned exactly as on an I/O
//     error.
//   - A waiter parked on another session's in-flight load stops
//     waiting the moment its own context dies, releasing its pin; the
//     load itself continues on the loader's behalf.
//   - A waiter whose loader was canceled does not inherit the loader's
//     context error: it retries the fetch under its own (still live)
//     context, becoming the new loader if the page is still absent.
//     One session's cancellation therefore never aborts another's
//     query — the invariant the shared pool's fairness rests on.
//   - Likewise a waiter whose loader's I/O failed does not inherit
//     that failure verbatim: it re-attempts the fetch under its own
//     (still live) context, becoming the new loader — with its own
//     retry budget — if the page is still absent. Only the session
//     that performed the failing read reports its error; each failed
//     loader exits, so the waiting population drains and the loop
//     terminates.
func (m *Manager) FetchContext(ctx context.Context, id postings.PageID) (*Frame, bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		f, missed, err := m.fetchOnce(ctx, id)
		if err != nil && ctx.Err() == nil {
			if errIsContextual(err) {
				// The loader we waited on was canceled; our own request
				// is still live, so try again (and likely become the
				// loader).
				continue
			}
			var wle *waiterLoadError
			if errors.As(err, &wle) {
				// The loader's read failed, not ours: re-attempt under
				// our own control rather than inheriting another
				// session's I/O failure.
				continue
			}
		}
		return f, missed, err
	}
}

// fetchOnce runs one fetch attempt. It may return another session's
// context error when that session was the loader, or a waiterLoadError
// when the loader's read failed; FetchContext turns both into a retry.
func (m *Manager) fetchOnce(ctx context.Context, id postings.PageID) (*Frame, bool, error) {
	sh := m.shardOf(id)
	var f *Frame
	// The reservation loop: normally one pass; with bounded-wait
	// backpressure (VictimWait > 0) a fully-pinned shard parks here
	// until a pin drops, then re-checks from the top (the page may have
	// arrived while we waited, turning the miss into a hit).
	var noVictim *time.Timer
	for f == nil {
		sh.mu.Lock()
		if hit, ok := sh.frames[id]; ok {
			hit.pin++
			sh.policy.Touched(hit)
			ch := hit.loading
			sh.mu.Unlock()
			if noVictim != nil {
				noVictim.Stop()
			}
			if ch != nil {
				select {
				case <-ch:
				case <-ctx.Done():
					// Our request died while the load is still in
					// flight. Drop our pin; the loader keeps its own
					// until done.
					m.releaseWaiter(sh, hit)
					return nil, false, ctx.Err()
				}
				if hit.loadErr != nil {
					err := hit.loadErr
					m.releaseWaiter(sh, hit)
					if !errIsContextual(err) {
						// Another session's read failed; wrap so
						// FetchContext re-attempts under our own
						// context instead of inheriting the failure.
						err = &waiterLoadError{err: err}
					}
					return nil, false, err
				}
			}
			m.hits.Add(1)
			return hit, false, nil
		}

		// Miss: reserve the frame under the latch, read outside it.
		if len(sh.frames) >= sh.capacity {
			victim := sh.policy.Victim()
			if victim == nil {
				if m.retry.VictimWait <= 0 {
					sh.mu.Unlock()
					return nil, false, ErrNoVictim
				}
				// Every frame is pinned: momentary backpressure, not an
				// error. Wait (off-latch) for a pin to drop, bounded by
				// one VictimWait across all passes of this fetch.
				space := sh.spaceLocked()
				sh.mu.Unlock()
				if noVictim == nil {
					noVictim = time.NewTimer(m.retry.VictimWait)
				}
				select {
				case <-space:
					continue
				case <-noVictim.C:
					return nil, false, ErrNoVictim
				case <-ctx.Done():
					noVictim.Stop()
					return nil, false, ctx.Err()
				}
			}
			m.removeLocked(sh, victim)
			m.evicts.Add(1)
		}
		f = &Frame{
			Page:    id,
			Term:    m.ix.TermOfPage(id),
			Offset:  m.ix.PageOffset(id),
			WStar:   m.ix.PageWStar(id),
			pin:     1,
			loading: make(chan struct{}),
		}
		sh.frames[id] = f
		m.resident[f.Term].Add(1)
		sh.policy.Admitted(f)
		m.misses.Add(1)
		sh.mu.Unlock()
	}
	if noVictim != nil {
		noVictim.Stop()
	}

	data, err := loadWithRetry(ctx, m.store, m.retry, id)

	sh.mu.Lock()
	if err != nil {
		// Counters must reflect successful loads only: undo the
		// provisional miss, poison the frame for any waiters, and
		// withdraw it once the last pin drops. The policy saw Admitted
		// at reservation and sees Removed at withdrawal — a failed load
		// is an admission that left again without ever being hit.
		// Residency drops NOW — a poisoned frame kept alive by waiter
		// pins holds no data, and BAF's b_t inquiry must not see
		// data-less pages as buffer-resident (it would underestimate
		// d_t).
		m.misses.Add(-1)
		m.resident[f.Term].Add(-1)
		f.nonResident = true
		f.loadErr = fmt.Errorf("buffer: load page %d: %w", id, err)
		close(f.loading)
		loadErr := f.loadErr
		f.pin--
		if f.pin == 0 {
			m.removeLocked(sh, f)
			sh.signalSpaceLocked()
		}
		sh.mu.Unlock()
		return nil, false, loadErr
	}
	f.data = data
	close(f.loading)
	f.loading = nil
	sh.mu.Unlock()
	return f, true, nil
}

// errIsContextual reports whether err stems from a context ending.
func errIsContextual(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// releaseWaiter drops a waiter's pin on a frame that is (or was)
// loading, removing the frame if the waiter was the last holder of a
// poisoned load. While a load is in flight the loader's own pin keeps
// the frame alive, so the removal can only trigger after the load has
// failed.
func (m *Manager) releaseWaiter(sh *shard, f *Frame) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f.pin--
	if f.pin == 0 {
		if f.loadErr != nil {
			m.removeLocked(sh, f)
		}
		sh.signalSpaceLocked()
	}
}

// Unpin releases one pin on the frame. Unpinning an unpinned frame is
// a programming error and panics.
func (m *Manager) Unpin(f *Frame) {
	sh := m.shardOf(f.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.pin <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", f.Page))
	}
	f.pin--
	if f.pin == 0 {
		sh.signalSpaceLocked()
	}
}

// Contains reports whether a page is currently buffered, without
// perturbing policy state (like the paper's b_t inquiry, it must not
// change the replacement order).
func (m *Manager) Contains(id postings.PageID) bool {
	sh := m.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.frames[id]
	return ok
}

// ResidentPages returns b_t: how many pages of term t's inverted list
// are currently buffered, summed across shards. Lock-free: BAF issues
// up to T(T+1)/2 inquiries per query and must not convoy the pool.
func (m *Manager) ResidentPages(t postings.TermID) int {
	return int(m.resident[t].Load())
}

// InUse returns the number of occupied frames.
func (m *Manager) InUse() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		total += len(sh.frames)
		sh.mu.Unlock()
	}
	return total
}

// PinnedFrames returns the number of frames with at least one pin,
// summed across shards. Leak checks assert this is zero at quiescence.
func (m *Manager) PinnedFrames() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pin > 0 {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// ShardOccupancy returns occupied frames per latch shard, in shard
// order. Shards are locked one at a time, so the slice is a consistent
// per-shard reading but only approximately a point-in-time total under
// concurrent load — exact at quiescence, when tests read it.
func (m *Manager) ShardOccupancy() []int {
	occ := make([]int, len(m.shards))
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		occ[i] = len(sh.frames)
		sh.mu.Unlock()
	}
	return occ
}

// SetQuery announces the query the pool's owner is about to evaluate
// — the private pool of one Session; users of a shared pool announce
// through their UserView instead. LRU and MRU ignore this; RAP re-keys
// the pages of the terms whose weight changed since the owner's last
// announcement (§3.3: values change between queries, so a reorganizing
// capability is required).
func (m *Manager) SetQuery(w QueryWeights) { m.announce(announcer{}, w) }

// Flush empties the pool. Flushing with pinned pages (including pages
// mid-load) is a programming error and panics; call it only between
// queries, as the experiments do.
func (m *Manager) Flush() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pin > 0 {
				sh.mu.Unlock()
				panic(fmt.Sprintf("buffer: flush with pinned page %d", f.Page))
			}
		}
		for _, f := range sh.frames {
			m.removeLocked(sh, f)
		}
		sh.signalSpaceLocked()
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evicts.Load(),
	}
}

// ResetStats zeroes the counters (pool contents are untouched).
func (m *Manager) ResetStats() {
	m.hits.Store(0)
	m.misses.Store(0)
	m.evicts.Store(0)
}

// PolicyStats returns the replacement policy's per-shard adaptive
// gauges summed across shards (ghost hits, expert switches) with the expert
// weight averaged, or ok == false when the policy does not report
// stats (every static policy).
func (m *Manager) PolicyStats() (PolicyStats, bool) {
	var agg PolicyStats
	reporting := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sr, ok := sh.policy.(StatsReporter)
		var s PolicyStats
		if ok {
			s = sr.PolicyStats()
		}
		sh.mu.Unlock()
		if !ok {
			continue
		}
		reporting++
		agg.GhostHitsLRU += s.GhostHitsLRU
		agg.GhostHitsRAP += s.GhostHitsRAP
		agg.Switches += s.Switches
		agg.WeightLRU += s.WeightLRU
	}
	if reporting == 0 {
		return PolicyStats{}, false
	}
	agg.WeightLRU /= float64(reporting)
	return agg, true
}

// removeLocked detaches f from its shard. Caller holds sh.mu. A frame
// whose load failed already surrendered its residency count at failure
// time (nonResident), so it must not be decremented again here.
func (m *Manager) removeLocked(sh *shard, f *Frame) {
	sh.policy.Removed(f)
	delete(sh.frames, f.Page)
	if !f.nonResident {
		m.resident[f.Term].Add(-1)
	}
}

// SetRetryPolicy installs the fault-tolerance policy of the load path
// (retry/backoff of transient load errors, bounded-wait backpressure
// on a fully-pinned shard). The zero policy — the default — disables
// both. Call at setup time, before the pool is shared between
// goroutines; it is not synchronized with concurrent fetches.
func (m *Manager) SetRetryPolicy(rp RetryPolicy) { m.retry = rp }
