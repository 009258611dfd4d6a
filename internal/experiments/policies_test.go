package experiments

import (
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/buffer/policytest"
)

// The extension policies E14 and E26 measure — LRU-2, 2Q and ADAPTIVE,
// built by NewPolicy — held to the buffer.Policy contract the
// product's policies keep (policytest).

// extensions are the policies NewPolicy builds beyond PolicyFactory.
var extensions = policyRows("LRU-2", "2Q", "ADAPTIVE")

// policyRows builds a policytest row per name through NewPolicy.
func policyRows(names ...string) []policytest.Policy {
	var pols []policytest.Policy
	for _, name := range names {
		pols = append(pols, policytest.Policy{Name: name, New: func(capacity int) buffer.Policy {
			pol, _ := NewPolicy(name, capacity)
			return pol
		}})
	}
	return pols
}

func TestPolicyConformanceVictimNeverPinned(t *testing.T) {
	policytest.VictimNeverPinned(t, extensions)
}

func TestPolicyConformanceVictimRemovedSymmetry(t *testing.T) {
	policytest.VictimRemovedSymmetry(t, extensions)
}

func TestPolicyConformanceSetQuerySafe(t *testing.T) { policytest.SetQuerySafe(t, extensions) }

func TestPolicyConformanceFlushCycles(t *testing.T) { policytest.FlushCycles(t, extensions) }

func TestPolicyConformanceDeterministicTrace(t *testing.T) {
	policytest.DeterministicTrace(t, extensions)
}

func TestPolicyConformancePermanentFault(t *testing.T) { policytest.PermanentFault(t, extensions) }

func TestPolicyConformanceSharded(t *testing.T) { policytest.Sharded(t, extensions) }

func TestPolicyConformanceHitsReachTouchers(t *testing.T) {
	policytest.HitsReachTouchers(t, extensions)
}

func TestShardedManagerProperties(t *testing.T) { policytest.ShardedManagerProperties(t, extensions) }

// TestSingleShardReplaysSerialManager replays DriftPolicies — the
// product's three, then the extension policies — on one random stream,
// so the first three rows are internal/buffer's.
func TestSingleShardReplaysSerialManager(t *testing.T) {
	pols := policyRows(DriftPolicies...)
	policytest.ReplaySerial(t, []policytest.Replay{
		{Policy: pols[0], Stats: buffer.Stats{Hits: 1984, Misses: 2016, Evictions: 1815}, Sig: 0xe483b75d64f100d0},
		{Policy: pols[1], Stats: buffer.Stats{Hits: 2164, Misses: 1836, Evictions: 1648}, Sig: 0xb2d26d5ddf4c603f},
		{Policy: pols[2], Stats: buffer.Stats{Hits: 2490, Misses: 1510, Evictions: 1295}, Sig: 0x90f66a851f87e3a9},
		{Policy: pols[3], Stats: buffer.Stats{Hits: 1663, Misses: 2337, Evictions: 2223}, Sig: 0x10b39cfc3712532c},
		{Policy: pols[4], Stats: buffer.Stats{Hits: 1996, Misses: 2004, Evictions: 1820}, Sig: 0x9ed60ba411d36ff0},
		{Policy: pols[5], Stats: buffer.Stats{Hits: 1396, Misses: 2604, Evictions: 2473}, Sig: 0x29fade70c66eba52},
	})
}

// TestGoldenVictims compares ADAPTIVE's victim golden in full;
// regenerate it with
//
//	go test ./internal/experiments -run TestGoldenVictims -update
//
// only when its eviction rule is changed on purpose.
func TestGoldenVictims(t *testing.T) { policytest.GoldenVictims(t, policyRows("ADAPTIVE"), *update) }

// TestExtensionPoliciesRankSafe: exact evaluation (FULL) stays
// bit-identical to its cold reference on warm pools run by each
// extension policy — the exactness guarantee must not depend on what
// the pool happens to evict. One run covers the three policies; each
// checks its own cells in a subtest named after it.
func TestExtensionPoliciesRankSafe(t *testing.T) {
	names := []string{"LRU-2", "2Q", "ADAPTIVE"}
	res, err := newTinyEnv(t).runRankSafe(3, names)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SafeExactEverywhere {
		t.Error("FULL not exact in every cell")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cells := 0
			for _, row := range res.Rows {
				if row.Policy != name || row.Method != "FULL" {
					continue
				}
				cells++
				if !row.Exact {
					t.Errorf("FULL at %d pages not exact", row.BufPages)
				}
			}
			if cells == 0 {
				t.Fatal("no FULL cells")
			}
		})
	}
}
