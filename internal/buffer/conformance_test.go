package buffer_test

import (
	"flag"
	"reflect"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/buffer/policytest"
)

// The product's policies held to the policytest contract: LRU, MRU and
// RAP (PolicyNames, built through PolicyFactory) and RAP's head-first
// variant. The extension policies the experiments measure are held to
// the same contract in internal/experiments.

func init() { buffer.SetFixtures(policytest.Env, policytest.GoldenIndex) }

// products are PolicyNames through PolicyFactory, in presentation
// order; family adds RAP's head-first variant.
var products, family = rows()

func rows() (products, family []policytest.Policy) {
	for _, name := range buffer.PolicyNames {
		mk, _ := buffer.PolicyFactory(name)
		products = append(products, policytest.Policy{Name: name, New: mk})
	}
	headFirst := policytest.Policy{Name: "RAP-headfirst", New: func(int) buffer.Policy { return buffer.NewRAPHeadFirst() }}
	return products, append(products[:len(products):len(products)], headFirst)
}

func TestPolicyConformanceVictimNeverPinned(t *testing.T) { policytest.VictimNeverPinned(t, family) }

func TestPolicyConformanceVictimRemovedSymmetry(t *testing.T) {
	policytest.VictimRemovedSymmetry(t, family)
}

func TestPolicyConformanceSetQuerySafe(t *testing.T) { policytest.SetQuerySafe(t, family) }

func TestPolicyConformanceFlushCycles(t *testing.T) { policytest.FlushCycles(t, family) }

func TestPolicyConformanceDeterministicTrace(t *testing.T) { policytest.DeterministicTrace(t, family) }

func TestPolicyConformancePermanentFault(t *testing.T) { policytest.PermanentFault(t, family) }

func TestPolicyConformanceSharded(t *testing.T) { policytest.Sharded(t, family) }

func TestPolicyConformanceHitsReachTouchers(t *testing.T) { policytest.HitsReachTouchers(t, family) }

func TestShardedManagerProperties(t *testing.T) { policytest.ShardedManagerProperties(t, products) }

// TestSingleShardReplaysSerialManager pins the product rows of the
// replay; internal/experiments replays these three and the extension
// policies on the same stream.
func TestSingleShardReplaysSerialManager(t *testing.T) {
	policytest.ReplaySerial(t, []policytest.Replay{
		{Policy: products[0], Stats: buffer.Stats{Hits: 1984, Misses: 2016, Evictions: 1815}, Sig: 0xe483b75d64f100d0},
		{Policy: products[1], Stats: buffer.Stats{Hits: 2164, Misses: 1836, Evictions: 1648}, Sig: 0xb2d26d5ddf4c603f},
		{Policy: products[2], Stats: buffer.Stats{Hits: 2490, Misses: 1510, Evictions: 1295}, Sig: 0x90f66a851f87e3a9},
	})
}

var update = flag.Bool("update", false, "rewrite testdata/golden_*.json from the current policies")

// TestGoldenVictims compares RAP's and RAP-headfirst's victim goldens,
// recorded from the frame-heap RAP (one container/heap over every
// frame, re-initialized by each SetQuery); regenerate them with
//
//	go test ./internal/buffer -run TestGoldenVictims -update
//
// only when an eviction rule is changed on purpose.
func TestGoldenVictims(t *testing.T) { policytest.GoldenVictims(t, family[2:], *update) }

// TestPolicyFactoryRejectsUnknown: the canonical factory is the single
// gate for names; it registers exactly the paper's three policies, and
// a typo or an extension policy's name must fail loudly everywhere.
func TestPolicyFactoryRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "lru", "CLOCK", "ARC", "LRU-2", "2Q", "ADAPTIVE"} {
		if _, err := buffer.PolicyFactory(bad); err == nil {
			t.Errorf("PolicyFactory(%q) succeeded, want error", bad)
		}
	}
	if want := []string{"LRU", "MRU", "RAP"}; !reflect.DeepEqual(buffer.PolicyNames, want) {
		t.Fatalf("PolicyNames = %v, want %v", buffer.PolicyNames, want)
	}
	for _, p := range products {
		if got := p.New(8).Name(); got != p.Name {
			t.Errorf("policy %q reports Name() = %q", p.Name, got)
		}
	}
}
