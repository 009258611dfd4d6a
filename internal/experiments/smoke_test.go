package experiments

import (
	"bytes"
	"testing"
	"time"

	"bufir/internal/corpus"
	"bufir/internal/refine"
)

// newTinyEnv builds a small deterministic environment shared by the
// package's tests.
func newTinyEnv(t testing.TB) *Env {
	t.Helper()
	env, err := NewEnv(corpus.TinyConfig(42))
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func TestSmokeAllExperiments(t *testing.T) {
	env := newTinyEnv(t)
	var buf bytes.Buffer

	fig3, err := env.RunFig3()
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	fig3.Format(&buf)
	if fig3.AvgSavingsPct <= 0 {
		t.Errorf("expected positive average DF savings, got %.1f%%", fig3.AvgSavingsPct)
	}

	fig4, err := env.RunFig4()
	if err != nil {
		t.Fatalf("fig4: %v", err)
	}
	fig4.Format(&buf)

	t4, err := env.RunTable4()
	if err != nil {
		t.Fatalf("table4: %v", err)
	}
	t4.Format(&buf)

	t5, err := env.RunTable5()
	if err != nil {
		t.Fatalf("table5: %v", err)
	}
	t5.Format(&buf)

	worked, err := env.RunWorkedExample()
	if err != nil {
		t.Fatalf("worked: %v", err)
	}
	worked.Format(&buf)
	if worked.BAFReads > worked.DFReads {
		t.Errorf("worked example: BAF read more (%d) than DF (%d) for the added term", worked.BAFReads, worked.DFReads)
	}

	t6, err := env.RunTable6()
	if err != nil {
		t.Fatalf("table6: %v", err)
	}
	t6.Format(&buf)

	sweep, err := env.RunSweep("Figure 5", 0, refine.AddOnly, 6)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	sweep.Format(&buf)
	if best := sweep.BestSavings("DF/LRU", "BAF/RAP"); best <= 0 {
		t.Errorf("expected BAF/RAP to beat DF/LRU somewhere in the sweep, best savings %.1f%%", best)
	}

	t7, err := env.RunTable7()
	if err != nil {
		t.Fatalf("table7: %v", err)
	}
	t7.Format(&buf)

	sum, err := env.RunSummary(refine.AddOnly, 4, 4)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	sum.Format(&buf)

	eff, err := env.RunEffectiveness(2, 3)
	if err != nil {
		t.Fatalf("effectiveness: %v", err)
	}
	eff.Format(&buf)

	t.Logf("experiment outputs:\n%s", buf.String())
}

func TestMultiUserExperiment(t *testing.T) {
	env := newTinyEnv(t)
	mu, err := env.RunMultiUser(5)
	if err != nil {
		t.Fatalf("multiuser: %v", err)
	}
	var buf bytes.Buffer
	mu.Format(&buf)
	// At generous pool sizes, the shared pool must beat segmentation:
	// users sharing a topic reuse each other's pages.
	last := len(mu.Sizes) - 1
	seg := mu.Series["segmented/RAP"][last]
	shared := mu.Series["shared/RAP"][last]
	if shared > seg {
		t.Errorf("shared/RAP read %d > segmented/RAP %d at the largest pool", shared, seg)
	}
	t.Logf("multiuser:\n%s", buf.String())
}

func TestObsExperiment(t *testing.T) {
	env := newTinyEnv(t)
	r, err := env.RunObs("127.0.0.1:0", 4, 2, 2, 0, 4, 0)
	if err != nil {
		t.Fatalf("obs: %v", err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	for _, v := range r.Verify {
		if v.SerialReads != v.EngineReads {
			t.Errorf("size %d: engine reads %d != serial %d with observation on", v.Size, v.EngineReads, v.SerialReads)
		}
	}
	sv := r.Snap.Serving
	if sv.Queries != int64(r.Queries) || sv.Completed != sv.Queries {
		t.Errorf("counters: queries %d completed %d, submitted %d", sv.Queries, sv.Completed, r.Queries)
	}
	if sv.PagesRead != r.Snap.Buffer.Misses {
		t.Errorf("PagesRead %d != buffer misses %d", sv.PagesRead, r.Snap.Buffer.Misses)
	}
	if !r.Scraped || r.ScrapedPagesRead != sv.PagesRead {
		t.Errorf("self-scrape: scraped=%v pages_read %d, engine counter %d", r.Scraped, r.ScrapedPagesRead, sv.PagesRead)
	}
	if r.Snap.Service.Count != sv.Queries {
		t.Errorf("service histogram count %d != queries %d", r.Snap.Service.Count, sv.Queries)
	}
	t.Logf("obs:\n%s", buf.String())
}

// TestConcurrencyExperiment gates E21's verification half: the
// 1-worker engine reproduces the serial E12 interleave's reads at every
// pool size.
func TestConcurrencyExperiment(t *testing.T) {
	env := newTinyEnv(t)
	r, err := env.RunConcurrency(4, 2, []int{1, 2}, 0, 4)
	if err != nil {
		t.Fatalf("concurrency: %v", err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if len(r.Verify) == 0 {
		t.Fatal("no verification rows")
	}
	for _, v := range r.Verify {
		if v.SerialReads != v.EngineReads {
			t.Errorf("size %d: engine reads %d != serial %d", v.Size, v.EngineReads, v.SerialReads)
		}
	}
	t.Logf("concurrency:\n%s", buf.String())
}

// TestLifecycleExperiment gates the lifecycle counters: every offered
// request is shed or executed, and every executed one lands in exactly
// one outcome.
func TestLifecycleExperiment(t *testing.T) {
	env := newTinyEnv(t)
	r, err := env.RunLifecycle(4, 2, 2, 200*time.Microsecond)
	if err != nil {
		t.Fatalf("lifecycle: %v", err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if len(r.Rows) == 0 {
		t.Fatal("no deadline rows")
	}
	for _, row := range r.Rows {
		if int64(row.Submitted) != row.Shed+row.Executed {
			t.Errorf("timeout %v: submitted %d != shed %d + executed %d",
				row.Timeout, row.Submitted, row.Shed, row.Executed)
		}
		if got := row.Completed + row.Partials + row.Aborted + row.Canceled; row.Executed != got {
			t.Errorf("timeout %v: executed %d != completed %d + partials %d + aborted %d + canceled %d",
				row.Timeout, row.Executed, row.Completed, row.Partials, row.Aborted, row.Canceled)
		}
	}
	t.Logf("lifecycle:\n%s", buf.String())
}

// TestShardsExperiment runs E25 at 1, 2 and 4 shards without simulated
// latency: the sweep itself fails when any shard count's merged top-k,
// or the top-k of its one-pool row, differs from the 1-shard
// reference.
func TestShardsExperiment(t *testing.T) {
	env := newTinyEnv(t)
	r, err := env.RunShards(4, 2, 1, []int{1, 2, 4}, 0)
	if err != nil {
		t.Fatalf("shards: %v", err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Queries == 0 || row.PagesRead == 0 {
			t.Errorf("shards=%d: %d queries, %d pages read", row.Shards, row.Queries, row.PagesRead)
		}
	}
	if len(r.OnePool) != len(r.Rows) {
		t.Fatalf("want a one-pool row per shard count, got %d", len(r.OnePool))
	}
	for i, row := range r.OnePool {
		split := r.Rows[i]
		if row.Shards != split.Shards || row.BufferPages != split.BufferPages || row.Workers != 2*split.Shards {
			t.Errorf("one-pool row %d: %d shards, %d buffers, %d workers; split row: %d shards, %d buffers",
				i, row.Shards, row.BufferPages, row.Workers, split.Shards, split.BufferPages)
		}
		if row.Queries != split.Queries || row.PagesRead == 0 {
			t.Errorf("one-pool row %d: %d queries, %d pages read", i, row.Queries, row.PagesRead)
		}
	}
	t.Logf("shards:\n%s", buf.String())
}

func TestAblations(t *testing.T) {
	env := newTinyEnv(t)
	ab, err := env.RunAblations()
	if err != nil {
		t.Fatalf("ablations: %v", err)
	}
	var buf bytes.Buffer
	ab.Format(&buf)
	if ab.ForcedReads < ab.NormalReads {
		t.Errorf("ForceFirstPage should never reduce reads: %d < %d", ab.ForcedReads, ab.NormalReads)
	}
	for _, pol := range []string{"LRU", "MRU"} {
		if mae := ab.EstimateMAE[pol]; mae < 0 || mae > 3 {
			t.Errorf("d_t estimate MAE under %s = %.2f, expected a small non-negative value", pol, mae)
		}
	}
	t.Logf("ablations:\n%s", buf.String())
}

func TestFaultsExperiment(t *testing.T) {
	env := newTinyEnv(t)
	r, err := env.RunFaults(4, 2, 2, 7)
	if err != nil {
		t.Fatalf("faults: %v", err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if len(r.Rows) < 2 || r.Rows[0].Prob != 0 {
		t.Fatalf("want a fault-free reference row plus a sweep, got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if got := row.Completed + row.Degraded + row.Errors; got != int64(row.Submitted) {
			t.Errorf("prob %.3f: outcomes sum to %d, want %d submitted", row.Prob, got, row.Submitted)
		}
		if row.DeliveredShare() < 0.99 {
			t.Errorf("prob %.3f: delivered share %.2f, want >= 0.99", row.Prob, row.DeliveredShare())
		}
		// At the tiny scale prob=0.001 may legitimately roll zero
		// faults; from 1% on the schedule must fire.
		if row.Prob >= 0.01 && row.Injected == 0 {
			t.Errorf("prob %.3f: schedule injected no faults", row.Prob)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Retries == 0 {
		t.Errorf("prob %.3f: no retries spent despite %d injected faults", last.Prob, last.Injected)
	}
	t.Logf("faults:\n%s", buf.String())
}

// TestIngestExperiment gates E28's three verdicts at tiny scale: the
// frozen phase answers exactly, no reader sees its epoch go backwards,
// and the merged generation is bit-identical to a pure-delta replay.
func TestIngestExperiment(t *testing.T) {
	env := newTinyEnv(t)
	r, err := env.RunIngest(4, 40)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !r.FrozenExact {
		t.Error("frozen phase not exact")
	}
	if !r.MonotoneEpochs {
		t.Error("a reader observed its epoch go backwards")
	}
	if !r.ExactAfterMerge {
		t.Error("merged generation differs from the pure-delta replay")
	}
	t.Logf("ingest:\n%s", buf.String())
}
