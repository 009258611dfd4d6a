package bufir

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenSynthetic(t *testing.T) {
	svc, err := Open("synth:tiny:21")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", svc.NumShards())
	}
	// The tiny collection's terms are flat tokens; ParseQuery takes
	// the whitespace path.
	name := svc.Index().TermName(0)
	q, err := svc.Index().ParseQuery(name + " nosuchterm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.SearchContext(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 {
		t.Error("no results from synthetic deployment")
	}
	if _, err := svc.Index().ParseQuery("nosuchterm"); err == nil {
		t.Error("query with no indexed terms did not error")
	}
	st := svc.Stats()
	if st.Queries != 1 || st.Completed != 1 {
		t.Errorf("Stats = %d/%d, want 1/1", st.Queries, st.Completed)
	}
}

func TestOpenSyntheticSharded(t *testing.T) {
	svc, err := Open("synth:tiny:21",
		WithShards(4),
		WithEngine(EngineConfig{BufferPages: 16}),
		WithRouter(RouterConfig{TopN: 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", svc.NumShards())
	}
	q, err := svc.Index().ParseQuery(svc.Index().TermName(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.SearchContext(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 || len(res.Top) > 5 {
		t.Errorf("merged result size %d, want 1..5", len(res.Top))
	}
	shardStats := svc.ShardStats()
	if len(shardStats) != 4 {
		t.Fatalf("ShardStats has %d entries", len(shardStats))
	}
	var fanned int64
	for _, s := range shardStats {
		fanned += s.Queries
	}
	if fanned != 4 {
		t.Errorf("fan-out reached %d shard queries, want 4", fanned)
	}
	// Live updates serve one partition: the sharded deployment refuses
	// them up front, and its ingestion and merge entry points keep
	// refusing.
	if err := svc.EnableLiveUpdates(LiveOptions{}); err == nil {
		t.Error("EnableLiveUpdates on a 4-shard deployment returned nil")
	}
	ctx := context.Background()
	if _, err := svc.IngestContext(ctx, Document{Name: "x", Text: svc.Index().TermName(0)}); err == nil {
		t.Error("IngestContext on a 4-shard deployment returned nil")
	}
	if err := svc.MergeContext(ctx); err == nil {
		t.Error("MergeContext on a 4-shard deployment returned nil")
	}
}

// Open must serve a paged index file and a shard directory behind a
// router — and the disk round trip must not change a single unfiltered
// score.
func TestOpenFilesAndShardDir(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	opts := WithEngine(EngineConfig{EvalOptions: EvalOptions{Unfiltered: true, TopN: 10}, BufferPages: 32})
	want, err := func() (*Result, error) {
		svc, err := Open("synth:tiny:21", opts)
		if err != nil {
			return nil, err
		}
		defer svc.Close()
		return svc.SearchContext(context.Background(), 0, q)
	}()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paged := filepath.Join(dir, "index.paged")
	shardDir := filepath.Join(dir, "shards")
	if err := ix.WriteFile(paged, 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteShardFiles(shardDir, 3, 0); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{paged, shardDir} {
		svc, err := Open(path, opts)
		if err != nil {
			t.Fatalf("Open(%s): %v", path, err)
		}
		wantShards := 1
		if path == shardDir {
			wantShards = 3
		}
		if svc.NumShards() != wantShards {
			t.Errorf("Open(%s): NumShards = %d, want %d", path, svc.NumShards(), wantShards)
		}
		got, err := svc.SearchContext(context.Background(), 0, q)
		if err != nil {
			t.Fatalf("search via %s: %v", path, err)
		}
		if len(got.Top) != len(want.Top) {
			t.Fatalf("Open(%s): %d results, want %d", path, len(got.Top), len(want.Top))
		}
		for i := range want.Top {
			if got.Top[i].Doc != want.Top[i].Doc || got.Top[i].Score != want.Top[i].Score {
				t.Errorf("Open(%s) rank %d: (%d, %v), want (%d, %v)",
					path, i, got.Top[i].Doc, got.Top[i].Score, want.Top[i].Doc, want.Top[i].Score)
			}
		}
		if err := svc.Close(); err != nil {
			t.Errorf("Close(%s): %v", path, err)
		}
		// Idempotent.
		if err := svc.Close(); err != nil {
			t.Errorf("second Close(%s): %v", path, err)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	for _, spec := range []string{
		"synth:",                // missing scale
		"synth:huge",            // unknown scale
		"synth:tiny:notanumber", // bad seed
		"synth:tiny:1:extra",    // too many fields
	} {
		if _, err := Open(spec); err == nil {
			t.Errorf("Open(%q) succeeded", spec)
		}
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Open of a missing path succeeded")
	}

	// Files that exist but are no bufir index: junk, and the retired
	// single-blob format, whose magic BUFIR2 readers do not accept.
	for name, body := range map[string]string{
		"junk":   "not an index at all",
		"bufir1": "BUFIR1\n" + strings.Repeat("\x00", 64),
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "not a bufir index") {
			t.Errorf("Open(%s) = %v", name, err)
		}
	}

	// An empty directory has no shard files.
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open of an empty directory succeeded")
	}

	// WithShards must match an on-disk partition count.
	_, ix := testIndex(t)
	shardDir := filepath.Join(t.TempDir(), "shards")
	if err := ix.WriteShardFiles(shardDir, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(shardDir, WithShards(3)); err == nil {
		t.Error("WithShards(3) over a 2-partition directory succeeded")
	}
	if svc, err := Open(shardDir, WithShards(2)); err != nil {
		t.Errorf("WithShards(2) over a 2-partition directory: %v", err)
	} else {
		svc.Close()
	}
}

// TestOpenShardsClosesSourceOnFailure: page checksums are verified
// lazily, so a file with one corrupt page blob opens fine and fails
// only when WithShards materializes its pages to split them. That
// failure must close the file-backed source index, not leak its file
// descriptor and mapping.
func TestOpenShardsClosesSourceOnFailure(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	fds()
	_, ix := testIndex(t)
	path := filepath.Join(t.TempDir(), "index.bufir")
	if err := ix.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // inside the final page blob
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	before := fds()
	if svc, err := Open(path, WithShards(2)); err == nil {
		svc.Close()
		t.Fatal("Open(WithShards(2)) over a corrupt page succeeded")
	}
	if after := fds(); after != before {
		t.Fatalf("%d open file descriptors after the failed Open, %d before", after, before)
	}
}
