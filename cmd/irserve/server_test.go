package main

// Golden-output test for the serving endpoints: with a seeded
// synthetic collection and unfiltered evaluation the /search answer is
// deterministic except for elapsed_us, which is canonicalized to 0
// before the diff. Regenerate with:
//
//	go test ./cmd/irserve -run Golden -update

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bufir"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testService(t *testing.T, shards int) *bufir.Service {
	t.Helper()
	var opts []bufir.Option
	opts = append(opts, bufir.WithEngine(bufir.EngineConfig{
		EvalOptions: bufir.EvalOptions{Algorithm: bufir.DF, Unfiltered: true, TopN: 5},
		BufferPages: 32,
	}))
	if shards > 1 {
		opts = append(opts, bufir.WithShards(shards), bufir.WithRouter(bufir.RouterConfig{TopN: 5}))
	}
	svc, err := bufir.Open("synth:tiny:1998", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

var elapsedRe = regexp.MustCompile(`"elapsed_us": \d+`)

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, elapsedRe.ReplaceAll(body, []byte(`"elapsed_us": 0`))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update after intentional changes):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func TestGoldenSearch(t *testing.T) {
	svc := testService(t, 1)
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	// Two vocabulary terms of the seeded collection: stable for the
	// fixed seed, so the full JSON answer is golden.
	q := svc.Index().TermName(0) + "+" + svc.Index().TermName(3)
	status, body := get(t, srv, "/search?q="+q+"&user=2&k=3")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	checkGolden(t, "search.golden", body)

	status, health := get(t, srv, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	checkGolden(t, "healthz.golden", health)
}

// The same query against a 4-shard deployment must return the same
// documents and scores (unfiltered merge is exact); only the shard
// count in the response differs.
func TestShardedSearchMatchesSingle(t *testing.T) {
	single := testService(t, 1)
	sharded := testService(t, 4)
	srvSingle := httptest.NewServer(newMux(single))
	defer srvSingle.Close()
	srvSharded := httptest.NewServer(newMux(sharded))
	defer srvSharded.Close()

	q := single.Index().TermName(0) + "+" + single.Index().TermName(3)
	var got, want searchResponse
	status, body := get(t, srvSingle, "/search?q="+q)
	if status != http.StatusOK {
		t.Fatalf("single status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	status, body = get(t, srvSharded, "/search?q="+q)
	if status != http.StatusOK {
		t.Fatalf("sharded status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Shards != 4 || want.Shards != 1 {
		t.Fatalf("shard counts %d/%d", got.Shards, want.Shards)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("sharded returned %d results, single %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Doc != want.Results[i].Doc || got.Results[i].Score != want.Results[i].Score {
			t.Errorf("rank %d: sharded (%d, %v), single (%d, %v)", i+1,
				got.Results[i].Doc, got.Results[i].Score, want.Results[i].Doc, want.Results[i].Score)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	svc := testService(t, 1)
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	for path, want := range map[string]int{
		"/search":                    http.StatusBadRequest, // no q
		"/search?q=nosuchterm":       http.StatusBadRequest, // nothing indexed
		"/search?q=a&user=x":         http.StatusBadRequest,
		"/search?q=t00000&user=1024": http.StatusBadRequest, // user ids stop below maxUsers
		"/search?q=t00000&user=1023": http.StatusOK,
		"/search?q=a&user=0&k=-1":    http.StatusBadRequest,
	} {
		if status, _ := get(t, srv, path); status != want {
			t.Errorf("GET %s: status %d, want %d", path, status, want)
		}
	}

	status, _ := get(t, srv, "/stats")
	if status != http.StatusOK {
		t.Errorf("/stats status %d", status)
	}
}

// TestSearchTermCap: a query of more than maxQueryTerms distinct
// indexed terms is refused with 400, one of exactly maxQueryTerms runs.
func TestSearchTermCap(t *testing.T) {
	svc := testService(t, 1)
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()
	var terms []string
	for i := 0; len(terms) <= maxQueryTerms; i++ {
		if i == 100000 {
			t.Fatalf("only %d indexed terms", len(terms))
		}
		name := fmt.Sprintf("t%05d", i)
		if q, err := svc.Index().ParseQuery(name); err == nil && len(q) == 1 {
			terms = append(terms, name)
		}
	}
	for _, n := range []int{maxQueryTerms + 1, maxQueryTerms} {
		want := http.StatusOK
		if n > maxQueryTerms {
			want = http.StatusBadRequest
		}
		if status, body := get(t, srv, "/search?q="+strings.Join(terms[:n], "+")); status != want {
			t.Errorf("%d terms: status %d, want %d: %s", n, status, want, body)
		}
	}
}

func post(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// End-to-end live ingestion through the HTTP tier: a document POSTed
// to /ingest is searchable on the next request, the epoch advances,
// and /merge compacts without changing the answer.
func TestIngestEndpoint(t *testing.T) {
	svc := testService(t, 1)
	if err := svc.EnableLiveUpdates(bufir.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	// A term absent from the synthetic vocabulary: after ingestion the
	// new document is its only (and top) match.
	const term = "zephyrine"
	status, body := post(t, srv, "/ingest", `{"name": "fresh", "text": "`+term+` `+term+`"}`)
	if status != http.StatusOK {
		t.Fatalf("ingest status %d: %s", status, body)
	}
	var ing ingestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Epoch == 0 {
		t.Fatalf("epoch did not advance: %+v", ing)
	}

	find := func() searchResponse {
		status, body := get(t, srv, "/search?q="+term)
		if status != http.StatusOK {
			t.Fatalf("search status %d: %s", status, body)
		}
		var res searchResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	found := func(res searchResponse) bool {
		for _, h := range res.Results {
			if h.Name == "fresh" {
				return true
			}
		}
		return false
	}
	if res := find(); !found(res) {
		t.Fatalf("ingested document not in answer: %+v", res)
	}

	status, body = post(t, srv, "/merge", "")
	if status != http.StatusOK {
		t.Fatalf("merge status %d: %s", status, body)
	}
	if res := find(); !found(res) {
		t.Fatalf("document lost after merge: %+v", res)
	}

	// Malformed and read-only failures.
	if status, _ := post(t, srv, "/ingest", "{nope"); status != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", status)
	}
	if status, _ := post(t, srv, "/ingest", `{"name": "x"}`); status != http.StatusBadRequest {
		t.Errorf("empty text: status %d", status)
	}
	big := `{"name": "big", "text": "` + strings.Repeat("a ", maxIngestBody/2) + `"}`
	if status, _ := post(t, srv, "/ingest", big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", status)
	}
	frozen := testService(t, 1)
	frozenSrv := httptest.NewServer(newMux(frozen))
	defer frozenSrv.Close()
	if status, _ := post(t, frozenSrv, "/ingest", `{"name": "x", "text": "y"}`); status != http.StatusConflict {
		t.Errorf("read-only ingest: status %d", status)
	}
}

// TestShardedIngestConflicts: live updates serve one partition, so a
// sharded deployment refuses them at startup (irserve -live -shards 2
// exits through EnableLiveUpdates' error) and answers /ingest and
// /merge with 409, as any read-only deployment does.
func TestShardedIngestConflicts(t *testing.T) {
	svc := testService(t, 2)
	if err := svc.EnableLiveUpdates(bufir.LiveOptions{}); err == nil {
		t.Fatal("EnableLiveUpdates on a 2-shard deployment returned nil")
	}
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()
	for _, path := range []string{"/ingest", "/merge"} {
		if status, body := post(t, srv, path, `{"name": "x", "text": "t00010"}`); status != http.StatusConflict {
			t.Errorf("%s on a sharded deployment: status %d, want 409: %s", path, status, body)
		}
	}
}

// TestStartupRejectsExtensionPolicy: the serving tier runs the paper's
// three policies only, so irserve -policy ADAPTIVE exits at startup
// through Open's ErrUnknownPolicy.
func TestStartupRejectsExtensionPolicy(t *testing.T) {
	svc, err := openService(serveConfig{index: "synth:tiny:1998", buffers: 32, policy: "ADAPTIVE", algo: bufir.DF, topN: 5})
	if !errors.Is(err, bufir.ErrUnknownPolicy) {
		if err == nil {
			svc.Close()
		}
		t.Fatalf("openService(-policy ADAPTIVE): got %v, want ErrUnknownPolicy", err)
	}
}
