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
// allocation-free on the hot path. The exported fields never change, so
// a lookup without the latch may read them.
type Frame struct {
	Page   postings.PageID
	Term   postings.TermID
	Offset int32   // page index within its term's list
	WStar  float64 // w*_{d,t}: max document weight on the page

	data []postings.Entry
	// pin counts holders; hits and Unpin change it without the latch. An
	// eviction claims a frame by swapping 0 for -1, so a pointer kept
	// past the eviction can never pin it again. Frames are not recycled.
	pin atomic.Int32
	// state is frameLoading, then frameReady or frameFailed; the loader
	// writes data or loadErr before it stores the state.
	state   atomic.Int32
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
func (f *Frame) Pinned() bool { return f.pin.Load() > 0 }

// Frame load states.
const (
	frameLoading int32 = iota
	frameReady
	frameFailed
)

// tryPin adds a pin unless the frame has left the pool.
func (f *Frame) tryPin() bool {
	n := f.pin.Load()
	for n >= 0 && !f.pin.CompareAndSwap(n, n+1) {
		n = f.pin.Load()
	}
	return n >= 0
}

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
// need no internal locking. Recency policies also implement toucher.
type Policy interface {
	// Name identifies the policy ("LRU", "MRU", "RAP", ...).
	Name() string
	// Admitted is called when frame f is reserved for a page, before
	// the page is read. A load that fails is followed by Removed(f)
	// without any Touched in between.
	Admitted(f *Frame)
	// Removed is called when f leaves the pool (eviction, flush, or a
	// failed load).
	Removed(f *Frame)
	// Victim returns the frame the policy wants evicted, skipping
	// pinned frames; nil if every frame is pinned. The Manager calls
	// Removed on the returned frame, unless a hit pinned it after the
	// policy looked; then it asks again.
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

// toucher is implemented by the policies a hit informs (all but RAP). The
// Manager calls Touched on every hit, under the shard latch.
type toucher interface {
	Touched(f *Frame)
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
// internal locking). Only a miss's reservation needs the latch: a hit
// finds and pins its frame by CAS (latching only to call Touched), and
// Unpin is one atomic decrement.
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
//     reads the page from storage; the loader publishes the page by an
//     atomic store. Concurrent requests for the same page park on the
//     shard's broadcast channel until the load ends, and count as hits
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
// private policy instance. mu guards the policy, the table's writes and
// space; the table is read without it.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   frameTable
	policy   Policy
	toucher  toucher // policy, when hits inform it

	// space, when non-nil, is closed (and replaced by nil) the next
	// time a frame of this shard becomes evictable or a load ends — the
	// one broadcast that wakes fetches parked in bounded-wait
	// backpressure (VictimWait) or on a loading page. Lazily created:
	// nil whenever nobody waits. waiting mirrors space != nil, so Unpin
	// and the loader take the latch only when someone waits; a waiter
	// registers, then re-checks its condition, so no wake-up is lost.
	space   chan struct{}
	waiting atomic.Bool
}

// spaceLocked registers the caller as a waiter and returns the channel
// to park on. Caller holds sh.mu.
func (sh *shard) spaceLocked() chan struct{} {
	if sh.space == nil {
		sh.space = make(chan struct{})
		sh.waiting.Store(true)
	}
	return sh.space
}

// signalSpaceLocked wakes every parked fetch. Caller holds sh.mu.
func (sh *shard) signalSpaceLocked() {
	if sh.space != nil {
		close(sh.space)
		sh.space = nil
		sh.waiting.Store(false)
	}
}

// wake signals from outside the latch, taking it only if a fetch waits.
func (sh *shard) wake() {
	if sh.waiting.Load() {
		sh.mu.Lock()
		sh.signalSpaceLocked()
		sh.mu.Unlock()
	}
}

// victimLocked claims the policy's victim by swapping its pin count from
// 0 to -1; if a hit pinned it after the policy looked, it asks again.
// Caller holds sh.mu.
func (sh *shard) victimLocked() *Frame {
	for {
		v := sh.policy.Victim()
		if v == nil || v.pin.CompareAndSwap(0, -1) {
			return v
		}
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
		sh := &m.shards[i]
		sh.capacity = cap
		sh.frames = newFrameTable(cap)
		sh.policy = pol
		sh.toucher, _ = pol.(toucher)
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
	// The hit: a lookup and a pin without the latch (ready is final). A
	// lookup racing a table write may miss, an evicted frame refuses the
	// pin, and a load must be waited for: all look again under the latch.
	if hit := sh.frames.get(id); hit != nil && hit.state.Load() == frameReady && hit.tryPin() {
		if sh.toucher != nil {
			sh.mu.Lock()
			sh.toucher.Touched(hit)
			sh.mu.Unlock()
		}
		m.hits.Add(1)
		return hit, false, nil
	}
	var f *Frame
	// The reservation loop: normally one pass; with bounded-wait
	// backpressure (VictimWait > 0) a fully-pinned shard parks here
	// until a pin drops, then re-checks from the top (the page may have
	// arrived while we waited, turning the miss into a hit).
	var noVictim *time.Timer
	for f == nil {
		sh.mu.Lock()
		if hit := sh.frames.get(id); hit != nil {
			if hit.state.Load() != frameFailed {
				hit.pin.Add(1) // unclaimed while in the table: not -1
				if sh.toucher != nil {
					sh.toucher.Touched(hit)
				}
				sh.mu.Unlock()
				if noVictim != nil {
					noVictim.Stop()
				}
				return m.awaitLoad(ctx, sh, hit)
			}
			// A failed load, pinned by fetches parked on it: nobody pins
			// it again, so withdraw it now and load the page afresh.
			m.removeLocked(sh, hit)
		}

		// Miss: reserve the frame under the latch, read outside it.
		if sh.frames.n >= sh.capacity {
			victim := sh.victimLocked()
			if victim == nil && m.retry.VictimWait > 0 {
				// Every frame is pinned: momentary backpressure, not an
				// error. Register, look once more, and wait off-latch
				// for a pin to drop, bounded by one VictimWait across all
				// passes of this fetch.
				space := sh.spaceLocked()
				if victim = sh.victimLocked(); victim == nil {
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
			}
			if victim == nil {
				sh.mu.Unlock()
				return nil, false, ErrNoVictim
			}
			m.removeLocked(sh, victim)
			m.evicts.Add(1)
		}
		f = &Frame{
			Page:   id,
			Term:   m.ix.TermOfPage(id),
			Offset: m.ix.PageOffset(id),
			WStar:  m.ix.PageWStar(id),
		}
		f.pin.Store(1)
		sh.frames.put(f)
		m.resident[f.Term].Add(1)
		sh.policy.Admitted(f)
		m.misses.Add(1)
		sh.mu.Unlock()
	}
	if noVictim != nil {
		noVictim.Stop()
	}

	data, err := loadWithRetry(ctx, m.store, m.retry, id)
	if err == nil {
		f.data = data
		f.state.Store(frameReady)
		sh.wake()
		return f, true, nil
	}
	// Counters must reflect successful loads only: undo the provisional
	// miss, poison the frame for any waiters, and withdraw it with its
	// last pin or the page's next fetch. The policy saw Admitted and sees
	// Removed at withdrawal — a failed load is an admission that left
	// again without ever being hit. Residency drops NOW — a poisoned
	// frame kept alive by waiter pins holds no data, and BAF's b_t
	// inquiry must not see data-less pages as buffer-resident (it would
	// underestimate d_t).
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m.misses.Add(-1)
	m.resident[f.Term].Add(-1)
	f.nonResident = true
	f.loadErr = fmt.Errorf("buffer: load page %d: %w", id, err)
	f.state.Store(frameFailed)
	m.releaseLocked(sh, f)
	sh.signalSpaceLocked()
	return nil, false, f.loadErr
}

// awaitLoad completes a fetch that pinned a frame under the latch: a
// ready frame is a hit, a failed load is released and reported, and a
// fetch of a page in flight parks until the load ends or ctx dies.
func (m *Manager) awaitLoad(ctx context.Context, sh *shard, f *Frame) (*Frame, bool, error) {
	for {
		switch f.state.Load() {
		case frameReady:
			m.hits.Add(1)
			return f, false, nil
		case frameFailed:
			err := f.loadErr
			m.releaseWaiter(sh, f)
			if !errIsContextual(err) {
				// Another session's read failed; wrap so FetchContext
				// re-attempts under our own context instead of
				// inheriting the failure.
				err = &waiterLoadError{err: err}
			}
			return nil, false, err
		}
		sh.mu.Lock()
		space := sh.spaceLocked()
		loading := f.state.Load() == frameLoading
		sh.mu.Unlock()
		if !loading {
			continue
		}
		select {
		case <-space:
		case <-ctx.Done():
			// Our request died while the load is still in flight. Drop
			// our pin; the loader keeps its own until done.
			m.releaseWaiter(sh, f)
			return nil, false, ctx.Err()
		}
	}
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
	m.releaseLocked(sh, f)
	sh.signalSpaceLocked()
}

// releaseLocked drops a pin of a loading or poisoned frame; the last pin
// of a poisoned frame still in the table withdraws it. Caller holds sh.mu.
func (m *Manager) releaseLocked(sh *shard, f *Frame) {
	if f.pin.Add(-1) == 0 && f.state.Load() == frameFailed && sh.frames.get(f.Page) == f {
		m.removeLocked(sh, f)
	}
}

// Unpin releases one pin on the frame, without the latch unless a fetch
// waits. Unpinning an unpinned frame is a programming error and panics.
func (m *Manager) Unpin(f *Frame) {
	switch n := f.pin.Add(-1); {
	case n < 0:
		f.pin.Add(1)
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", f.Page))
	case n == 0:
		m.shardOf(f.Page).wake()
	}
}

// Contains reports whether a page is currently buffered, without
// perturbing policy state (like the paper's b_t inquiry, it must not
// change the replacement order).
func (m *Manager) Contains(id postings.PageID) bool {
	sh := m.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.frames.get(id) != nil
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
		total += sh.frames.n
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
		for j := range sh.frames.slots {
			if f := sh.frames.slots[j].Load(); f != nil && f.Pinned() {
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
		occ[i] = sh.frames.n
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
		var all []*Frame
		for j := range sh.frames.slots {
			if f := sh.frames.slots[j].Load(); f != nil {
				if f.Pinned() {
					sh.mu.Unlock()
					panic(fmt.Sprintf("buffer: flush with pinned page %d", f.Page))
				}
				all = append(all, f)
			}
		}
		for _, f := range all {
			f.pin.Store(-1)
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

// removeLocked detaches a claimed frame (pin -1) or a failed load from
// its shard. Caller holds sh.mu. A frame whose load failed already
// surrendered its residency count at failure time (nonResident), so it
// must not be decremented again here.
func (m *Manager) removeLocked(sh *shard, f *Frame) {
	sh.policy.Removed(f)
	sh.frames.remove(f.Page)
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

// frameTable maps a shard's pages to their frames: linear probing over at
// least twice the shard's capacity, written under the latch and read
// without it. A deletion shifts the rest of its probe chain back (no
// tombstones), so a reader racing it may miss a present frame; it then
// looks again under the latch.
type frameTable struct {
	slots []atomic.Pointer[Frame]
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots; guarded by the latch
}

func newFrameTable(capacity int) frameTable {
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return frameTable{slots: make([]atomic.Pointer[Frame], 1<<bits), shift: 64 - bits}
}

// home is id's first probe slot, by Fibonacci hashing.
func (t *frameTable) home(id postings.PageID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// get returns id's frame, or nil; a reader racing writes stops after one
// lap.
func (t *frameTable) get(id postings.PageID) *Frame {
	mask := len(t.slots) - 1
	for i, n := t.home(id), 0; n < len(t.slots); i, n = (i+1)&mask, n+1 {
		if f := t.slots[i].Load(); f == nil || f.Page == id {
			return f
		}
	}
	return nil
}

// put adds a frame whose page is absent. Caller holds the latch.
func (t *frameTable) put(f *Frame) {
	mask := len(t.slots) - 1
	i := t.home(f.Page)
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(f)
	t.n++
}

// remove deletes the frame of a present page. Caller holds the latch.
func (t *frameTable) remove(id postings.PageID) {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].Load().Page != id {
		i = (i + 1) & mask
	}
	// Backward shift: each later frame of the chain whose home is not
	// cyclically in (i, j] moves into the hole at i, leaving its own.
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		f := t.slots[j].Load()
		if f == nil {
			break
		}
		if (j-t.home(f.Page))&mask >= (j-i)&mask {
			t.slots[i].Store(f)
			i = j
		}
	}
	t.slots[i].Store(nil)
	t.n--
}
