package bufir

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
	"bufir/internal/livedex"
	"bufir/internal/metrics"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/refine"
	"bufir/internal/storage"
	"bufir/internal/text"
)

// Core identifier and data types, shared with the internal engine.
type (
	// DocID identifies a document.
	DocID = postings.DocID
	// TermID identifies an indexed term.
	TermID = postings.TermID
	// Entry is one (document, frequency) posting.
	Entry = postings.Entry
	// ScoredDoc is a ranked result document.
	ScoredDoc = rank.ScoredDoc
	// QueryTerm is one query term with its query frequency f_qt.
	QueryTerm = eval.QueryTerm
	// Query is a bag of query terms (natural-language query model).
	Query = eval.Query
	// Algorithm selects the evaluation strategy (DF, BAF or Maxscore).
	Algorithm = eval.Algorithm
	// Result carries the ranked answer and execution statistics of one
	// query evaluation.
	Result = eval.Result
	// Topic is a synthetic topic: query terms plus relevance judgments.
	Topic = corpus.Topic
	// CollectionConfig parameterizes synthetic collection generation.
	CollectionConfig = corpus.Config
	// Collection is a generated synthetic collection.
	Collection = corpus.Collection
	// RankedTerm is a query term with its measured score contribution.
	RankedTerm = refine.RankedTerm
	// RefinementSequence is a derived query-refinement workload.
	RefinementSequence = refine.Sequence
	// RefinementKind selects ADD-ONLY or ADD-DROP.
	RefinementKind = refine.Kind
	// RelevanceSet is a set of relevant documents for effectiveness
	// metrics.
	RelevanceSet = metrics.RelevanceSet
	// BufferStats are buffer-pool hit/miss/eviction counters.
	BufferStats = buffer.Stats
	// Document is a raw text document for IndexDocuments.
	Document = text.Document
)

// Evaluation algorithms. DF and BAF are the paper's unsafe filtering
// methods; Maxscore is exact evaluation (bit-identical to exhaustive
// evaluation).
const (
	// DF is Persin's Document Filtering (decreasing-idf term order).
	DF = eval.DF
	// BAF is the paper's Buffer-Aware Filtering (fewest estimated
	// disk reads first).
	BAF = eval.BAF
	// Maxscore is exact evaluation: DF with the filtering constants
	// zeroed (the FULL baseline), whatever CAdd and CIns say.
	Maxscore = eval.MAXSCORE
)

// ParseAlgorithm resolves an evaluation method by its conventional
// name (case-insensitive): DF, BAF, MAXSCORE — the vocabulary of
// irserve's -algo flag.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "DF":
		return DF, nil
	case "BAF":
		return BAF, nil
	case "MAXSCORE":
		return Maxscore, nil
	default:
		return DF, fmt.Errorf("bufir: unknown algorithm %q (want DF, BAF or MAXSCORE)", name)
	}
}

// Policy names a buffer replacement policy.
type Policy string

// Replacement policies.
const (
	// LRU evicts the least recently used page (the file-system
	// default the paper argues against for refinement workloads).
	LRU Policy = "LRU"
	// MRU evicts the most recently used page.
	MRU Policy = "MRU"
	// RAP is the paper's Ranking-Aware Policy.
	RAP Policy = "RAP"
)

// Refinement workload kinds.
const (
	// AddOnly adds three terms per refinement.
	AddOnly = refine.AddOnly
	// AddDrop also drops the weakest term of the previous group.
	AddDrop = refine.AddDrop
)

// DefaultCollectionConfig returns the laptop-scale synthetic
// collection configuration (40k documents) used by the benchmark
// harness.
func DefaultCollectionConfig(seed int64) CollectionConfig {
	return corpus.DefaultConfig(seed)
}

// TinyCollectionConfig returns a unit-test-scale configuration that
// generates in milliseconds.
func TinyCollectionConfig(seed int64) CollectionConfig {
	return corpus.TinyConfig(seed)
}

// PaperCollectionConfig returns the full WSJ-scale configuration
// (173,252 documents, 167,017 terms) matching the paper's Table 4.
func PaperCollectionConfig(seed int64) CollectionConfig {
	return corpus.PaperConfig(seed)
}

// GenerateCollection builds a synthetic collection with topics and
// relevance judgments; deterministic in cfg.Seed.
func GenerateCollection(cfg CollectionConfig) (*Collection, error) {
	return corpus.Generate(cfg)
}

// Index is a frequency-sorted paged inverted index over a simulated
// disk. Create Sessions on it to run queries.
//
// An Index serves queries out of its current published view — one
// generation of (metadata, page store, conversion table), held behind
// an atomic pointer. For the historical read-only construction paths
// there is exactly one view, epoch 0, and nothing ever changes.
// EnableLiveUpdates turns the index mutable: Add publishes a new
// combined (main + delta) view per commit and Merge swaps in a
// compacted generation, each bumping Epoch; sessions and engines
// rebind to the new view at their next query. See DESIGN.md §15.
type Index struct {
	// cur is the current published view (see idxView). Mutated only by
	// construction, InjectFaults, and the live-update path under
	// liveMu.
	cur atomic.Pointer[idxView]

	// stopWords is the applied stop-word list for document-built
	// indexes (persisted so reloaded indexes parse queries the same).
	// Frozen at index birth: live additions are processed by the same
	// list, never re-derived, so query parsing is stable across epochs.
	stopWords []string
	// pipe is non-nil for document-built indexes and processes query
	// text identically to document text.
	pipe *text.Pipeline
	// positional is non-nil when the index was built with
	// IndexOptions.Positional. Positional data has no delta path, so
	// EnableLiveUpdates refuses positional indexes.
	positional *text.PositionalIndex

	// Live-update state; all nil/zero until EnableLiveUpdates.
	liveMu   sync.Mutex
	live     *livedex.State
	liveOpts LiveOptions
	livePipe *text.Pipeline
	// liveNames names every live document in DocID order, main
	// generation then delta. It only grows: each published view holds
	// a capacity-capped prefix, which a later append cannot write
	// into. liveMerges counts completed merges.
	liveNames  []string
	liveMerges int
	// faultSchedule/faultSeed remember InjectFaults so every published
	// view gets a fresh fault layer with the same rules (per-page read
	// ordinals restart per generation).
	faultRules []storage.FaultRule
	faultSeed  uint64
	// file is the page file OpenIndexFile opened, nil for an in-memory
	// index. A merge publishes its generation in memory, but queries
	// bound to an older view may still read the file, so it is closed
	// at Index.Close, not at swap.
	file *storage.FileStore
	// merging guards the single background merge slot; mergeWG lets
	// Close wait for it.
	merging atomic.Bool
	mergeWG sync.WaitGroup
}

// NewIndex builds the inverted index of a generated collection.
func NewIndex(col *Collection) (*Index, error) {
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, col.Cfg.PageSize)
	if err != nil {
		return nil, err
	}
	return newStaticIndex(ix, storage.NewStore(pages), nil), nil
}

// IndexOptions controls IndexDocuments.
type IndexOptions struct {
	// PageSize is the page capacity in entries (0 = the paper's 404).
	PageSize int
	// NumStopWords is how many of the most frequent raw terms to drop
	// (0 = the paper's 100; negative disables stop-word removal).
	NumStopWords int
	// Positional also builds a positional index, enabling quoted
	// phrases in SearchTextContext — the phrase operator of the
	// paper's §2.1 footnote 2.
	Positional bool
}

// IndexDocuments builds an index from raw documents through the full
// lexical pipeline (tokenization, stop-word removal, Porter stemming).
func IndexDocuments(docs []Document, opts IndexOptions) (*Index, error) {
	res, err := text.Build(docs, text.Options{
		PageSize:     opts.PageSize,
		NumStopWords: opts.NumStopWords,
	})
	if err != nil {
		return nil, err
	}
	out := newStaticIndex(res.Index, storage.NewStore(res.Pages), res.DocNames)
	out.stopWords = res.StopWords
	out.pipe = res.Pipeline
	if opts.Positional {
		texts := make([]string, len(docs))
		for i, d := range docs {
			texts[i] = d.Text
		}
		pos, err := text.BuildPositional(texts, res.Pipeline)
		if err != nil {
			return nil, err
		}
		out.positional = pos
	}
	return out, nil
}

// WriteFile persists the index as a paged index file (the BUFIR3
// format): block-compressed pages packed back to back behind a
// fixed-size page directory, each page individually checksummed.
// OpenIndexFile serves the file page-at-a-time straight from disk.
// Document names and the stop-word list of document-built indexes are
// included, so the reopened index keeps text-query support. The second
// parameter is a retired block alignment: it must be 0.
func (ix *Index) WriteFile(path string, blockSize int) error {
	if blockSize != 0 {
		return fmt.Errorf("bufir: WriteFile: block size %d: index files are packed, pass 0", blockSize)
	}
	pages, err := ix.pagePayloads()
	if err != nil {
		return err
	}
	return indexfile.WritePageFile(path, ix.meta(), pages, ix.aux())
}

// OpenIndexFile opens an index written by WriteFile without loading
// its pages into memory: every buffer-pool miss becomes a real read
// against the file (a memory-mapped view where the platform supports
// it, pread otherwise) plus a per-page checksum verification and
// decompression. Queries return exactly the same answers as over the
// in-memory store; only the physical cost of a miss changes. Close
// the index when done with it.
func OpenIndexFile(path string) (*Index, error) {
	return openIndexFile(path, indexfile.PageFileOptions{})
}

// openIndexFile is OpenIndexFile with explicit access options; the
// index conformance suite's file-readat backend forces the pread path
// through it.
func openIndexFile(path string, opts indexfile.PageFileOptions) (*Index, error) {
	fs, err := storage.OpenFileStore(path, opts)
	if err != nil {
		return nil, err
	}
	pf := fs.File()
	out := newStaticIndex(pf.Index, fs, nil)
	out.file = fs
	out.applyAux(pf.Aux)
	return out, nil
}

// Close releases the resources of a file-backed index (OpenIndexFile):
// the mapping and the file handle. It stays open until Close, even
// after a live merge publishes an in-memory generation, because
// queries bound to an older view may still be mid-read. A pending
// background merge is waited out first. It is a no-op for purely
// in-memory indexes. Do not use the index — or sessions, engines and
// pools created from it — after Close.
func (ix *Index) Close() error {
	ix.mergeWG.Wait()
	ix.liveMu.Lock()
	fs := ix.file
	ix.file = nil
	ix.liveMu.Unlock()
	if fs == nil {
		return nil
	}
	return fs.Close()
}

// aux collects the auxiliary data persisted alongside the postings,
// nil when there is none.
func (ix *Index) aux() *indexfile.Aux {
	v := ix.view()
	if v.docNames == nil && ix.stopWords == nil {
		return nil
	}
	return &indexfile.Aux{DocNames: v.docNames, StopWords: ix.stopWords}
}

// applyAux restores auxiliary data onto a freshly constructed index
// (whose view has not been shared yet).
func (ix *Index) applyAux(aux *indexfile.Aux) {
	if aux == nil {
		return
	}
	ix.view().docNames = aux.DocNames
	ix.stopWords = aux.StopWords
	if aux.DocNames != nil || aux.StopWords != nil {
		ix.pipe = text.NewPipeline(aux.StopWords)
	}
}

// pagePayloads returns the current view's raw page payloads, read
// quietly off its undecorated store: an in-memory store answers with
// its own slices, a file-backed one decodes each page.
func (ix *Index) pagePayloads() ([][]postings.Entry, error) {
	v := ix.view()
	pages := make([][]postings.Entry, v.ix.NumPagesTotal)
	for i := range pages {
		p, err := v.base.ReadQuiet(postings.PageID(i))
		if err != nil {
			return nil, fmt.Errorf("bufir: materializing page %d: %w", i, err)
		}
		pages[i] = p
	}
	return pages, nil
}

// NumDocs returns the collection size N (main + delta for live
// indexes).
func (ix *Index) NumDocs() int { return ix.meta().NumDocs }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.meta().Terms) }

// NumPages returns the total number of inverted-list pages.
func (ix *Index) NumPages() int { return ix.meta().NumPagesTotal }

// PageSize returns the page capacity in entries.
func (ix *Index) PageSize() int { return ix.meta().PageSize }

// DiskReads returns the cumulative page reads issued to the simulated
// disk across all sessions of this index — of the current generation:
// a live commit or merge swap starts a fresh store whose counter
// starts at zero.
func (ix *Index) DiskReads() int64 { return ix.pageStore().Reads() }

// ResetDiskReads zeroes the disk-read counter of the current
// generation's store.
func (ix *Index) ResetDiskReads() { ix.pageStore().ResetReads() }

// FaultStats counts the faults an InjectFaults schedule actually
// injected, by kind.
type FaultStats = storage.FaultStats

// InjectFaults wraps the index's simulated disk in a deterministic
// fault-injection layer: every subsequent counted page read is subject
// to the schedule. The schedule is a ';'-separated list of rules, each
// `kind[:opt,...]` with kind one of transient, permanent, latency and
// options pages=N|A-B|N- (page range; default all), prob=F (fault
// probability per read), every=N / first=N (fault by per-page read
// ordinal), and spike=DUR (latency rules only). The seed fixes every
// probabilistic decision, so a given (schedule, seed) faults the same
// (page, read-ordinal) pairs on every run — chaos experiments are
// reproducible regardless of goroutine interleaving.
//
//	ix.InjectFaults("transient:prob=0.01", 42)        // 1% flaky reads
//	ix.InjectFaults("permanent:pages=7", 1)           // page 7 is dead
//	ix.InjectFaults("latency:prob=0.05,spike=5ms", 7) // slow 5% of reads
//	ix.InjectFaults("latency:spike=200us", 0)         // every read takes 200µs
//
// A latency rule with no selector is the simulated disk time: it puts
// every read in the I/O-bound regime the paper's cost model describes.
// A later call replaces the whole schedule, so combine rules in one.
//
// Call before creating sessions, engines or pools — they capture the
// store at construction and keep reading the unwrapped disk otherwise
// (Engine and Session rebind when the view changes, so they do pick
// the fault layer up at their next query). Pair with an Engine's
// EngineConfig.Fault (retry/backoff) and EvalOptions.FaultBudget
// (degrade instead of error) to ride the faults out.
//
// On a live index the schedule persists across generations: every
// commit and merge swap wraps its freshly published store in a new
// fault layer with the same rules and seed (per-page read ordinals
// restart with each generation).
func (ix *Index) InjectFaults(schedule string, seed uint64) error {
	rules, err := storage.ParseFaultSchedule(schedule)
	if err != nil {
		return err
	}
	ix.liveMu.Lock()
	defer ix.liveMu.Unlock()
	v := ix.view()
	fs, err := storage.NewFaultStore(v.base, seed, rules)
	if err != nil {
		return err
	}
	ix.faultRules = rules
	ix.faultSeed = seed
	// Republish at the same epoch: the logical generation is unchanged,
	// but the view pointer moves so bound sessions pick the layer up.
	nv := *v
	nv.store = fs
	ix.publish(&nv)
	return nil
}

// FaultStats reports how many faults the InjectFaults layer has
// injected so far, by kind (zero value when InjectFaults was never
// called). On a live index the counts are those of the current
// generation's fault layer.
func (ix *Index) FaultStats() FaultStats {
	if fs, ok := ix.pageStore().(*storage.FaultStore); ok {
		return fs.FaultStats()
	}
	return FaultStats{}
}

// LookupTerm resolves a term string (already stemmed for generated
// collections; raw terms are resolved through the pipeline for
// document-built indexes).
func (ix *Index) LookupTerm(term string) (TermID, bool) {
	m := ix.meta()
	if id, ok := m.LookupTerm(term); ok {
		return id, true
	}
	if ix.pipe != nil {
		if ts := ix.pipe.Terms(term); len(ts) == 1 {
			return m.LookupTerm(ts[0])
		}
	}
	return 0, false
}

// TermName returns the indexed name of a term.
func (ix *Index) TermName(t TermID) string { return ix.meta().Terms[t].Name }

// TermPages returns the length of term t's inverted list in pages.
func (ix *Index) TermPages(t TermID) int { return ix.meta().Terms[t].NumPages }

// DocName returns the external name of a document for document-built
// indexes, or a synthetic "doc<N>" name otherwise.
func (ix *Index) DocName(d DocID) string {
	if names := ix.view().docNames; d >= 0 && int(d) < len(names) {
		return names[d]
	}
	return fmt.Sprintf("doc%d", d)
}

// TopicQuery resolves a topic's terms into a Query.
func (ix *Index) TopicQuery(t Topic) (Query, error) {
	return refine.QueryFromTopic(ix.meta(), t)
}

// ParseQuery turns free text into a Query against the index's
// vocabulary: through the lexical pipeline for document-built indexes
// (tokenized, stop-words dropped, stemmed), by whitespace splitting
// otherwise (synthetic collections and files written from them, whose
// terms are flat tokens). Repeated terms get proportionally higher
// query frequencies. Unknown terms are skipped; a query with no
// indexed term is an error.
func (ix *Index) ParseQuery(text string) (Query, error) {
	var counts map[string]int
	if ix.pipe != nil {
		counts = ix.pipe.CountTerms(text)
	} else {
		counts = make(map[string]int)
		for _, w := range strings.Fields(text) {
			counts[w]++
		}
	}
	m := ix.meta()
	var q Query
	for term, f := range counts {
		if id, ok := m.LookupTerm(term); ok {
			q = append(q, QueryTerm{Term: id, Fqt: f})
		}
	}
	if len(q) == 0 {
		return nil, fmt.Errorf("bufir: no indexed terms in query %q", text)
	}
	// Deterministic order (evaluation order is decided by the
	// algorithm anyway).
	sort.Slice(q, func(i, j int) bool { return q[i].Term < q[j].Term })
	return q, nil
}

// SessionConfig configures a search Session. The evaluation knobs
// live in the embedded EvalOptions; with CAdd and CIns both zero a
// session defaults to the paper's WSJ tuning (0.002 / 0.07).
type SessionConfig struct {
	// EvalOptions are the evaluation knobs shared with EngineConfig.
	EvalOptions
	// Policy is the buffer replacement policy (default LRU).
	Policy Policy
	// BufferPages is the buffer pool size in pages (default 128).
	BufferPages int
}

// Session is a search session: one engine user, stepped inline, over
// a private 1-shard buffer pool of its Index. Sessions are not safe for
// concurrent use; create one per user.
//
// A session binds to one published view of its index at a time. When
// the index moves on (live commit, merge swap, InjectFaults), the next
// Search rebinds: a fresh buffer pool over the new generation's store
// — cold by construction, so no frame ever carries a stale
// generation's page — and a fresh evaluator over its metadata and
// conversion table. Mid-query the binding never changes: each
// evaluation runs entirely against the view it started on, and its
// Result is stamped with that view's epoch.
type Session struct {
	ix   *Index
	algo Algorithm
	user *engine.User
}

// NewSession creates a session over the index.
func (ix *Index) NewSession(cfg SessionConfig) (*Session, error) {
	rc, err := resolveConfig(cfg.EvalOptions, cfg.Policy, cfg.BufferPages, LRU, eval.PaperParams())
	if err != nil {
		return nil, err
	}
	src := &poolSource{ix: ix, rc: rc, shards: 1}
	user, err := engine.NewUser(src, 0, rc.params)
	if err != nil {
		return nil, err
	}
	return &Session{ix: ix, algo: cfg.Algorithm, user: user}, nil
}

// Epoch returns the index generation the session is currently bound
// to (the epoch its next Search will run at, barring a concurrent
// publication).
func (s *Session) Epoch() uint64 { return s.user.Epoch() }

// Search is an exact alias of SearchContext with context.Background():
// identical evaluation on every path — the only difference is that a
// background context never cancels. It returns the ranked answer with
// execution statistics.
func (s *Session) Search(q Query) (*Result, error) {
	return s.SearchContext(context.Background(), q)
}

// SearchContext is Search bound to a context, checked at every term
// round and page boundary: canceling it (or an expiring deadline)
// stops the evaluation within one page read. On a context error the
// anytime partial answer is returned alongside it (Result.Partial
// set); see Result. An I/O error mid-evaluation returns, alongside it,
// a Result with no answer that carries the cost of the pages read
// before the failure.
func (s *Session) SearchContext(ctx context.Context, q Query) (*Result, error) {
	return s.user.Step(ctx, s.algo, q)
}

// SearchTextContext parses free text with ParseQuery and evaluates it
// under ctx (see SearchContext for the cancellation contract).
// Double-quoted segments are phrase constraints: the ranked answer is
// filtered to documents containing every quoted phrase exactly. A
// phrase on an index built without IndexOptions.Positional fails with
// ErrNoPositional before anything is evaluated.
func (s *Session) SearchTextContext(ctx context.Context, text string) (*Result, error) {
	phrases, stripped := extractPhrases(text)
	if len(phrases) > 0 && s.ix.positional == nil {
		return nil, &hintedErr{
			msg:  "bufir: phrase query needs an index built with IndexOptions.Positional",
			base: ErrNoPositional,
		}
	}
	q, err := s.ix.ParseQuery(stripped)
	if err != nil {
		return nil, err
	}
	res, err := s.SearchContext(ctx, q)
	if err != nil || len(phrases) == 0 {
		return res, err
	}
	allowed, err := s.ix.phraseFilter(phrases)
	if err != nil {
		return nil, err
	}
	filtered := res.Top[:0:0]
	for _, sd := range res.Top {
		if allowed[sd.Doc] {
			filtered = append(filtered, sd)
		}
	}
	res.Top = filtered
	return res, nil
}

// extractPhrases splits double-quoted phrases out of a query string,
// returning the phrases and the text with quotes removed (the quoted
// words still participate in ranking).
func extractPhrases(text string) (phrases [][]string, stripped string) {
	var b strings.Builder
	for {
		open := strings.IndexByte(text, '"')
		if open < 0 {
			break
		}
		close := strings.IndexByte(text[open+1:], '"')
		if close < 0 {
			break
		}
		phrase := text[open+1 : open+1+close]
		if words := strings.Fields(phrase); len(words) > 0 {
			phrases = append(phrases, words)
		}
		b.WriteString(text[:open])
		b.WriteByte(' ')
		b.WriteString(phrase)
		b.WriteByte(' ')
		text = text[open+close+2:]
	}
	b.WriteString(text)
	return phrases, b.String()
}

// phraseFilter returns the set of documents matching every phrase.
func (ix *Index) phraseFilter(phrases [][]string) (map[DocID]bool, error) {
	var allowed map[DocID]bool
	for _, phrase := range phrases {
		docs, err := ix.positional.Phrase(phrase)
		if err != nil {
			return nil, err
		}
		set := make(map[DocID]bool, len(docs))
		for _, d := range docs {
			if allowed == nil || allowed[d] {
				set[d] = true
			}
		}
		allowed = set
	}
	return allowed, nil
}

// FlushBuffers empties the session's buffer pool.
func (s *Session) FlushBuffers() { s.user.Pool().Manager().Flush() }

// BufferStats returns the session's hit/miss/eviction counters.
func (s *Session) BufferStats() BufferStats { return s.user.Pool().Manager().Stats() }

// RankTermsByContribution orders the query's terms by their average
// contribution to the cosine score of the current top documents,
// computed — as in the paper's workload construction — against an
// unoptimized evaluation of the query. This is the basis for
// refinement sequences.
func (ix *Index) RankTermsByContribution(q Query) ([]RankedTerm, error) {
	v := ix.view()
	ev, err := fullEvaluator(v)
	if err != nil {
		return nil, err
	}
	res, err := ev.Evaluate(eval.DF, q)
	if err != nil {
		return nil, err
	}
	return refine.RankByContribution(v.ix, v.store, q, res.Top)
}

// BuildRefinementSequence derives an ADD-ONLY or ADD-DROP refinement
// sequence (3 terms per refinement) from a contribution ranking.
func BuildRefinementSequence(topicID int, kind RefinementKind, ranked []RankedTerm) (*RefinementSequence, error) {
	return refine.BuildSequence(topicID, kind, ranked, refine.GroupSize)
}

// fullEvaluator builds a throwaway exhaustive evaluator over one view
// with ample buffers for offline computations.
func fullEvaluator(v *idxView) (*eval.Evaluator, error) {
	mgr, err := buffer.NewManager(v.ix.NumPagesTotal+1, 1, v.store, v.ix, func(int) buffer.Policy { return buffer.NewLRU() })
	if err != nil {
		return nil, err
	}
	return eval.NewEvaluator(v.ix, mgr, v.conv, eval.Params{TopN: 20})
}

// AveragePrecision computes non-interpolated average precision of a
// ranked result against a relevance set.
func AveragePrecision(top []ScoredDoc, rel RelevanceSet) float64 {
	return metrics.AveragePrecision(top, rel)
}

// NewRelevanceSet builds a RelevanceSet from document IDs.
func NewRelevanceSet(docs []DocID) RelevanceSet {
	return metrics.NewRelevanceSet(docs)
}
