package buffer

import (
	"math"

	"bufir/internal/postings"
)

// Expert tags recorded in the ADAPTIVE ghost list.
const (
	expertLRU uint8 = iota
	expertRAP
)

// adaptiveLearningRate is the multiplicative-weights step: the expert
// blamed for a ghost hit keeps e^{-λ} of its weight before
// renormalization. 0.45 is the LeCaR paper's setting; it adapts within
// a few tens of mistakes without thrashing on isolated ones.
const adaptiveLearningRate = 0.45

// adaptiveWeightFloor keeps either expert's weight from collapsing, so
// the policy can swing back quickly when the workload drifts again.
const adaptiveWeightFloor = 0.05

// adaptiveSeed seeds the splitmix64 stream used to break exact weight
// ties (notably the initial 0.5/0.5 state). It is a fixed constant:
// every ADAPTIVE instance consumes the identical pseudo-random stream,
// so single-threaded runs are bit-for-bit reproducible.
const adaptiveSeed uint64 = 0x9E3779B97F4A7C15

// PolicyStats are the ADAPTIVE policy's observable gauges, surfaced
// through Manager.PolicyStats and the bufir_policy_* metrics.
type PolicyStats struct {
	// GhostHitsLRU / GhostHitsRAP count re-references to pages whose
	// eviction was charged to the respective expert — the regret signal
	// driving the weight updates.
	GhostHitsLRU int64
	GhostHitsRAP int64
	// WeightLRU is the LRU expert's current weight in [floor, 1-floor];
	// the RAP expert holds the complement.
	WeightLRU float64
	// Switches counts changes of the favored (argmax-weight) expert.
	Switches int64
}

// StatsReporter is implemented by policies that expose PolicyStats
// (currently only Adaptive). The Manager probes for it dynamically so
// static policies pay nothing.
type StatsReporter interface {
	PolicyStats() PolicyStats
}

// Adaptive is a LeCaR-style regret-minimizing replacement policy
// (Vietri et al., HotStorage 2018, adapted to the paper's setting): it
// runs LRU and RAP as experts over the one frame set — they coexist
// because LRU uses the frames' intrusive recency links while RAP uses
// their group pointer — and keeps a bounded ghost list of evicted pages,
// each tagged with the expert whose recommendation evicted it. When a
// ghosted page is referenced again, the eviction MAY have been a
// mistake; to make the regret signal real rather than noise, each
// expert also maintains a shadow simulation of the cache it would have
// kept on its own (page IDs and replacement metadata only, bounded by
// the pool capacity), and the blamed expert is penalized only when the
// OTHER expert's shadow still holds the page — i.e. only when
// following the other expert would demonstrably have turned this miss
// into a hit. Without the counterfactual check, unavoidable capacity
// misses blame whichever expert happens to be favored, the blame rates
// equalize, and the policy oscillates in a mixture instead of
// converging to the winning expert. On a qualified mistake the
// responsible expert's weight is multiplied by e^{-λ} and the weights
// renormalized (with a floor, so recovery stays fast). Victims are
// drawn from the currently-favored (highest-weight) expert; exact ties
// are broken by a deterministic seeded splitmix64 stream, keeping
// 1-worker runs bit-identical and replayable.
//
// SetQuery forwards the paper's query weights w_{q,t} to the RAP
// expert, so ADAPTIVE stays query-aware: on the refinement workloads
// where RAP dominates (§5) it converges to RAP's choices, and on
// recency-friendly workloads where RAP's value function misleads
// (pages of currently-unqueried hot terms value to 0) it converges to
// LRU — the workload-drift experiment E26 measures both transitions.
type Adaptive struct {
	lru *LRU
	rap *RAP

	// Shadow simulations: what each expert's cache would hold if it ran
	// the pool alone. Shadow frames are private copies (never pinned),
	// bounded at the pool capacity, evicted by the expert's own rule.
	shadowLRU *shadowCache
	shadowRAP *shadowCache

	ghosts *ghostList
	wLRU   float64 // RAP's weight is 1 - wLRU

	// pending is the frame returned by the last Victim call and the
	// expert that chose it; Removed ghosts a frame only when it is the
	// pending victim, so teardown removals (Flush, failed-load
	// invalidation) never pollute the regret signal.
	pending       *Frame
	pendingExpert uint8

	favored uint8 // argmax-weight expert, for switch counting
	rng     uint64
	stats   PolicyStats
}

// NewAdaptive returns an ADAPTIVE policy for a pool (or shard) of the
// given capacity; the ghost list holds two capacities' worth of
// eviction history — LeCaR keeps one cache-sized history per expert,
// and the shared ring needs the combined span so a mistake by either
// expert stays observable while the other expert churns the pool.
func NewAdaptive(capacity int) *Adaptive {
	if capacity < 1 {
		capacity = 1
	}
	return &Adaptive{
		lru:       NewLRU(),
		rap:       NewRAP(),
		shadowLRU: newShadowCache(NewLRU(), capacity),
		shadowRAP: newShadowCache(NewRAP(), capacity),
		ghosts:    newGhostList(2 * capacity),
		wLRU:      0.5,
		rng:       adaptiveSeed,
	}
}

// Name implements Policy.
func (p *Adaptive) Name() string { return "ADAPTIVE" }

// Admitted implements Policy: a ghost hit is charged to the expert
// recorded at eviction time — but only when the other expert's shadow
// cache proves the miss was avoidable — before the frame joins both
// experts and both shadows observe the access.
func (p *Adaptive) Admitted(f *Frame) {
	if tag, ok := p.ghosts.Hit(f.Page); ok {
		p.ghosts.Remove(f.Page)
		other := p.shadowRAP
		if tag == expertRAP {
			other = p.shadowLRU
		}
		// The counterfactual check runs against the shadow state BEFORE
		// this access is applied to it.
		if other.contains(f.Page) {
			p.penalize(tag)
		}
	}
	p.shadowLRU.access(f)
	p.shadowRAP.access(f)
	p.lru.Admitted(f)
	p.rap.Admitted(f)
}

// Touched implements Policy: both experts and both shadows observe
// every hit.
func (p *Adaptive) Touched(f *Frame) {
	p.shadowLRU.access(f)
	p.shadowRAP.access(f)
	p.lru.Touched(f)
	p.rap.Touched(f)
}

// Removed implements Policy: the frame leaves both experts; only a
// genuine eviction — the frame the manager just obtained from Victim —
// leaves a ghost entry.
func (p *Adaptive) Removed(f *Frame) {
	p.lru.Removed(f)
	p.rap.Removed(f)
	if f == p.pending {
		p.ghosts.Add(f.Page, p.pendingExpert)
		p.pending = nil
	}
}

// Victim implements Policy: the favored expert proposes the victim,
// falling back to the other expert if every frame the favorite can see
// is pinned (both experts track all frames, so the fallback only
// matters for future partial-view experts; it keeps the contract that
// Victim is nil only when everything is pinned).
func (p *Adaptive) Victim() *Frame {
	expert := p.chooseExpert()
	var f *Frame
	if expert == expertLRU {
		f = p.lru.Victim()
		if f == nil {
			f, expert = p.rap.Victim(), expertRAP
		}
	} else {
		f = p.rap.Victim()
		if f == nil {
			f, expert = p.lru.Victim(), expertLRU
		}
	}
	if f != nil {
		p.pending, p.pendingExpert = f, expert
	}
	return f
}

// SetQuery implements Policy: the weight changes reach the RAP expert
// and its shadow (LRU is query-oblivious).
func (p *Adaptive) SetQuery(changed []TermWeight) {
	p.rap.SetQuery(changed)
	p.shadowRAP.pol.SetQuery(changed)
}

// PolicyStats implements StatsReporter.
func (p *Adaptive) PolicyStats() PolicyStats {
	s := p.stats
	s.WeightLRU = p.wLRU
	return s
}

// chooseExpert returns the argmax-weight expert, breaking exact ties
// with the seeded deterministic stream.
func (p *Adaptive) chooseExpert() uint8 {
	switch {
	case p.wLRU > 0.5:
		return expertLRU
	case p.wLRU < 0.5:
		return expertRAP
	default:
		if p.nextRand()&1 == 0 {
			return expertLRU
		}
		return expertRAP
	}
}

// penalize applies the multiplicative-weights update against the
// expert blamed for a ghost hit.
func (p *Adaptive) penalize(tag uint8) {
	wL, wR := p.wLRU, 1-p.wLRU
	if tag == expertLRU {
		p.stats.GhostHitsLRU++
		wL *= math.Exp(-adaptiveLearningRate)
	} else {
		p.stats.GhostHitsRAP++
		wR *= math.Exp(-adaptiveLearningRate)
	}
	w := wL / (wL + wR)
	if w < adaptiveWeightFloor {
		w = adaptiveWeightFloor
	}
	if w > 1-adaptiveWeightFloor {
		w = 1 - adaptiveWeightFloor
	}
	p.wLRU = w
	if fav := p.argmax(); fav != p.favored {
		p.favored = fav
		p.stats.Switches++
	}
}

// argmax is chooseExpert without consuming randomness (ties keep the
// current favorite, so a tie does not count as a switch).
func (p *Adaptive) argmax() uint8 {
	switch {
	case p.wLRU > 0.5:
		return expertLRU
	case p.wLRU < 0.5:
		return expertRAP
	default:
		return p.favored
	}
}

// shadowCache simulates the cache one expert would keep if it ran the
// pool alone: a capacity-bounded set of private frames (metadata only,
// never pinned) evicted by the expert's own Victim rule. It answers
// the counterfactual behind every weight update — "would the other
// expert have this page resident right now?" — which plain eviction
// history cannot (history knows who evicted a page, not whether the
// alternative would have kept it).
type shadowCache struct {
	pol      Policy
	capacity int
	frames   map[postings.PageID]*Frame
}

func newShadowCache(pol Policy, capacity int) *shadowCache {
	return &shadowCache{pol: pol, capacity: capacity, frames: make(map[postings.PageID]*Frame, capacity)}
}

func (s *shadowCache) contains(id postings.PageID) bool {
	_, ok := s.frames[id]
	return ok
}

// access replays one real-pool reference into the simulation. Shadow
// frames are never pinned, so Victim cannot fail while the set is
// non-empty.
func (s *shadowCache) access(f *Frame) {
	if sf, ok := s.frames[f.Page]; ok {
		s.pol.Touched(sf)
		return
	}
	sf := &Frame{Page: f.Page, Term: f.Term, Offset: f.Offset, WStar: f.WStar}
	s.pol.Admitted(sf)
	s.frames[sf.Page] = sf
	if len(s.frames) > s.capacity {
		v := s.pol.Victim()
		s.pol.Removed(v)
		delete(s.frames, v.Page)
	}
}

// nextRand advances the splitmix64 stream (Steele et al., "Fast
// splittable pseudorandom number generators").
func (p *Adaptive) nextRand() uint64 {
	p.rng += 0x9E3779B97F4A7C15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
