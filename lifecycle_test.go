package bufir

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestExtractPhrasesEdgeCases pins the quote-parsing behavior of
// SearchTextContext's phrase extraction at its boundaries.
func TestExtractPhrasesEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		in       string
		phrases  [][]string
		stripped string // "" means: just assert the quoted words survive
	}{
		{
			name:    "no quotes",
			in:      "plain query terms",
			phrases: nil,
		},
		{
			name: "single phrase",
			in:   `find "exact phrase" here`,
			phrases: [][]string{
				{"exact", "phrase"},
			},
		},
		{
			// An unbalanced quote can never close, so no phrase is
			// extracted and the tail — quote character included — is
			// passed through for ranking untouched.
			name:     "unbalanced quote",
			in:       `foo "bar baz`,
			phrases:  nil,
			stripped: `foo "bar baz`,
		},
		{
			// Empty quotes constrain nothing.
			name:    "empty phrase",
			in:      `""`,
			phrases: nil,
		},
		{
			name: "adjacent phrases",
			in:   `"a b""c d"`,
			phrases: [][]string{
				{"a", "b"},
				{"c", "d"},
			},
		},
		{
			name: "quote at end",
			in:   `foo "bar"`,
			phrases: [][]string{
				{"bar"},
			},
		},
		{
			// Whitespace-only quotes behave like empty ones.
			name:    "blank phrase",
			in:      `x "   " y`,
			phrases: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			phrases, stripped := extractPhrases(tc.in)
			if len(phrases) != len(tc.phrases) {
				t.Fatalf("phrases = %v, want %v", phrases, tc.phrases)
			}
			for i := range phrases {
				if strings.Join(phrases[i], " ") != strings.Join(tc.phrases[i], " ") {
					t.Errorf("phrase %d = %v, want %v", i, phrases[i], tc.phrases[i])
				}
			}
			if tc.stripped != "" && stripped != tc.stripped {
				t.Errorf("stripped = %q, want %q", stripped, tc.stripped)
			}
			// The quoted words must keep participating in ranking:
			// every word of every phrase appears in the stripped text.
			for _, p := range tc.phrases {
				for _, w := range p {
					if !strings.Contains(stripped, w) {
						t.Errorf("stripped %q lost phrase word %q", stripped, w)
					}
				}
			}
			// Quotes never survive into the ranked query text except
			// for the unbalanced tail, which is passed through as-is.
			if tc.name != "unbalanced quote" && strings.Contains(stripped, `"`) {
				t.Errorf("stripped %q still contains a quote", stripped)
			}
		})
	}
}

// TestSentinelErrors: the exported sentinels match the failures they
// name, through errors.Is, at the public API surface.
func TestSentinelErrors(t *testing.T) {
	col, ix := testIndex(t)

	if _, err := ix.NewSession(SessionConfig{Policy: "FIFO"}); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("bad session policy: err = %v, want ErrUnknownPolicy", err)
	}
	if _, err := ix.NewEngine(EngineConfig{Policy: "CLOCK"}); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("bad engine policy: err = %v, want ErrUnknownPolicy", err)
	}

	s, err := ix.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(nil); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty query: err = %v, want ErrEmptyQuery", err)
	}

	// The positional sentinel from the phrase-query path, which keeps
	// its site-specific message.
	if _, err := s.SearchTextContext(context.Background(), `"a b"`); !errors.Is(err, ErrNoPositional) {
		t.Errorf("phrase query: err = %v, want ErrNoPositional", err)
	}

	eng, err := ix.NewEngine(EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchContext(context.Background(), 0, q); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed engine: err = %v, want ErrEngineClosed", err)
	}
}

// TestEngineRequestLifecycle drives the public lifecycle surface end
// to end: fail-fast admission, per-request deadlines with partial
// answers, caller-side cancellation, and graceful shutdown.
func TestEngineRequestLifecycle(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ix.TopicQuery(col.Topics[1])
	if err != nil {
		t.Fatal(err)
	}

	// Fail-fast admission: a stalled 1-worker engine with MaxQueue=1
	// must shed a burst.
	eng, err := ix.NewEngine(EngineConfig{Workers: 1, MaxQueue: 1, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	slow := ix.pageStore().(interface{ SetReadLatency(time.Duration) })
	slow.SetReadLatency(500 * time.Microsecond)
	defer slow.SetReadLatency(0)
	var tickets []*Ticket
	shed := 0
	for i := 0; i < 16; i++ {
		tk, err := eng.SubmitContext(context.Background(), i%2, q)
		if err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			shed++
			continue
		}
		tickets = append(tickets, tk)
	}
	if shed == 0 {
		t.Error("burst against MaxQueue=1 shed nothing")
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Errorf("accepted request failed: %v", err)
		}
	}
	if st := eng.Stats(); st.Shed != int64(shed) || st.Queries != int64(len(tickets)) {
		t.Errorf("Stats() Shed = %d, Queries = %d, want %d shed, %d admitted", st.Shed, st.Queries, shed, len(tickets))
	}
	eng.Close()

	// Deadline with partial answers.
	eng2, err := ix.NewEngine(EngineConfig{
		Workers:      1,
		BufferPages:  64,
		QueryTimeout: 400 * time.Microsecond,
		OnDeadline:   PartialOnDeadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng2.SearchContext(context.Background(), 0, q2)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatal(err)
		}
	} else if !res.Partial && eng2.Stats().Timeouts > 0 {
		t.Error("timed-out request returned a non-partial result")
	}

	// Caller-side cancellation through SearchContext.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng2.SearchContext(ctx, 1, q); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled SearchContext: err = %v, want Canceled", err)
	}

	// Graceful shutdown with ample deadline completes cleanly and is
	// idempotent with Close.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := eng2.Shutdown(sctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	eng2.Close()
	if _, err := eng2.SubmitContext(context.Background(), 0, q); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Submit after Shutdown: err = %v, want ErrEngineClosed", err)
	}
}

// TestSessionSearchContext: the serial Session honors contexts too —
// a pre-canceled context fails without evaluating, a live one matches
// Search exactly.
func TestSessionSearchContext(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{EvalOptions: EvalOptions{Algorithm: BAF}, Policy: RAP, BufferPages: 64}
	s, err := ix.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SearchContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled SearchContext: err = %v, want Canceled", err)
	}
	// Warm buffers change what a repeat query filters (the residency
	// interaction), so compare fresh sessions, not back-to-back runs.
	want, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ix.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.SearchContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.EntriesProcessed != want.EntriesProcessed || len(got.Top) != len(want.Top) {
		t.Error("SearchContext with a live context diverged from Search")
	}
}

// TestSearchTextContextCanceledReturnsPartial: SearchTextContext keeps
// SearchContext's anytime contract — a request canceled mid-evaluation
// returns its partial answer alongside context.Canceled.
func TestSearchTextContextCanceledReturnsPartial(t *testing.T) {
	docs := []Document{
		{Name: "a", Text: "gold markets rallied as gold prices rose"},
		{Name: "b", Text: "silver markets fell while gold held steady"},
		{Name: "c", Text: "bond markets were quiet"},
	}
	ix, err := IndexDocuments(docs, IndexOptions{PageSize: 1, NumStopWords: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Every read takes 2 ms, so the cancel at 1 ms lands mid-read.
	ix.SetSimulatedReadLatency(2 * time.Millisecond)
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Unfiltered: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)
	res, err := s.SearchTextContext(ctx, "gold markets")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("canceled text search returned %+v, want the partial answer", res)
	}
}
