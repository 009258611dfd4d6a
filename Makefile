# Tier-1 gate and development targets. `make ci` is the full gate run
# before every merge: gates-check (every -run, -bench and -fuzz pattern
# below selects a test, benchmark or fuzz target that exists), lint (a pinned staticcheck, installed on demand;
# loud vet fallback when the install cannot reach the module proxy,
# plus a gofmt check), the dependency-graph check (the optional HTTP
# observability endpoint must stay out of the core library's build
# graph), the public-surface check (api/), build, the nested benchmark module's tests, the fuzz seed
# corpora, the benchmark smokes and the two deterministic JSON emitters
# (whose files must come out byte-identical to the committed ones), a
# GOOS=windows vet of the file store (the pread-only mmap_off.go path,
# which no Linux build compiles), then ONE pass of the whole test suite under
# -race with a coverage profile — every unit, conformance, exactness
# and leak test runs exactly once, and the coverage floor is
# read off that profile — and finally the engine chaos tests and the
# buffer's fetch stress test ten more times, which buys new
# interleavings rather than repeating a deterministic test. The named
# gates below (test, race, leaks,
# storetest, policy-conformance, ranksafe-exactness, indextest,
# ingest-exactness, faults-smoke, cover) stay as developer
# entry points into a slice of that pass.

GO ?= go

# Pinned lint toolchain: every CI run uses the same staticcheck, not
# whatever happens to be on PATH.
STATICCHECK_VERSION ?= 2025.1
STATICCHECK := $(shell $(GO) env GOPATH)/bin/staticcheck

.PHONY: ci gates-check lint depgraph api api-check vet build test benchmark-test race leaks fuzz-seeds fuzz bench bench-compare loc cover concurrency obs faults chaos storetest bench-store policy-conformance bench-policy bench-policyops bench-fetch ranksafe-exactness bench-eval bench-ranksafe indextest ingest-exactness

ci: gates-check lint depgraph api-check build benchmark-test fuzz-seeds bench-policyops bench-fetch bench-eval bench-policy bench-ranksafe
	GOOS=windows $(GO) vet ./internal/indexfile ./internal/storage
	git diff --exit-code -- BENCH_policy.json BENCH_ranksafe.json
	$(GO) test -race -count=1 -covermode=atomic -coverprofile=$(COVER_PROFILE) ./...
	$(cover-floor)
	$(GO) test -race -count=10 -run 'TestChaos|TestFetchStress' ./internal/engine ./internal/buffer

# Gate hygiene: each alternative of every -run pattern in this file
# must select a test, fuzz target, benchmark or example that some
# package defines, each -bench alternative a benchmark and each -fuzz
# alternative a fuzz target, so that deleting or renaming one cannot
# silently empty a gate or a smoke (tools/gates-check.sh; '^$$' is
# exempt).
gates-check:
	@sh tools/gates-check.sh

lint:
	@if [ -x "$(STATICCHECK)" ] || $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) 2>/dev/null; then \
		echo "staticcheck ./... ($$($(STATICCHECK) -version 2>/dev/null || echo unknown))"; \
		"$(STATICCHECK)" ./...; \
	else \
		echo "WARNING: could not install staticcheck@$(STATICCHECK_VERSION) (offline?); falling back to go vet." >&2; \
		echo "WARNING: this is a weaker check than the CI gate intends — install staticcheck when network returns." >&2; \
		$(GO) vet ./...; \
	fi
	@out=$$(gofmt -l . 2>/dev/null); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Dependency-graph hygiene: the core library must never link net/http
# (or net/http/pprof, whose init registers handlers on the default
# mux). The endpoint is opt-in via a blank import of bufir/obshttp; a
# regression here would put an HTTP stack in every binary using the
# library.
#
# The test-support packages (the conformance suites policytest,
# storetest and indextest) are imported by tests only: no other
# package may depend on them, so test apparatus never links into a
# binary and "test support" stays a checked category.
TEST_SUPPORT := bufir/internal/buffer/policytest bufir/internal/storage/storetest bufir/internal/indextest
depgraph:
	@deps=$$($(GO) list -deps . ./internal/engine ./internal/buffer ./internal/eval ./internal/metrics) || exit 1; \
	bad=$$(printf '%s\n' "$$deps" | grep -x 'net/http\|net/http/pprof\|bufir/obshttp' || true); \
	if [ -n "$$bad" ]; then \
		echo "depgraph: core packages must not depend on:"; echo "$$bad"; exit 1; \
	fi; \
	echo "depgraph ok: core library free of net/http"
	@graph=$$($(GO) list -f '{{.ImportPath}} {{join .Deps " "}}' ./...) || exit 1; \
	bad=$$(printf '%s\n' "$$graph" | while read -r p deps; do \
		case " $(TEST_SUPPORT) " in *" $$p "*) continue;; esac; \
		for d in $$deps; do \
			case " $(TEST_SUPPORT) " in *" $$d "*) echo "$$p -> $$d";; esac; \
		done; \
	done); \
	if [ -n "$$bad" ]; then \
		echo "depgraph: only tests may depend on the test-support packages:"; echo "$$bad"; exit 1; \
	fi; \
	echo "depgraph ok: test-support packages reached from tests only"

# The public surface is a checked file, after Go's own api/go1.*.txt:
# api/bufir.txt and api/obshttp.txt list every exported identifier of
# the public packages with its signature (TestAPI, api_test.go), and
# api/cmd/<name>.txt holds each command's -h usage. `api` rewrites
# them; `api-check` fails on any difference, so every change to the
# surface shows up in review. The commands define their flags inside
# main(), so the usage comes from built binaries, not from the source.
API_CMDS := irbench irindex irsearch irserve
# cmd-usage is a shell fragment: it builds each command into $$bin and
# writes its -h output to $(1)/<name>.txt, running the binary from $$bin
# so that the usage line reads "Usage of ./<name>:" wherever the
# repository lives.
cmd-usage = for c in $(API_CMDS); do \
		$(GO) build -o "$$bin/$$c" ./cmd/$$c || exit 1; \
		(cd "$$bin" && ./$$c -h) > $(1)/$$c.txt 2>&1; \
	done

api:
	$(GO) test . -run '^TestAPI$$' -count=1 -update
	@bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; mkdir -p api/cmd; $(call cmd-usage,api/cmd)

api-check:
	$(GO) test . -run '^TestAPI$$' -count=1
	@bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; mkdir "$$bin/usage"; $(call cmd-usage,"$$bin/usage"); \
	diff -ru api/cmd "$$bin/usage" || { echo "api-check: command usage differs from api/cmd/ (make api rewrites it)"; exit 1; }; \
	echo "api-check ok"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repo benchmark is a nested module (benchmark/go.mod) that
# assembles its own pool/evaluator stack over internal APIs, so
# `go build ./...` and `go test ./...` at the root never compile it.
# This gate does: an API change that breaks the benchmark fails here,
# not after the merge.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Leak gate: cancellation/shutdown under -race must leave zero pinned
# frames, zero registry entries and no worker goroutines behind.
leaks:
	$(GO) test -race -count=1 \
		-run 'TestCancelMidEvaluationNoLeaks|TestShutdownDeadline|TestCancelMidScanReturnsPartial|TestEngineRequestLifecycle' \
		./internal/engine ./internal/eval .

# Replays the checked-in seed corpora (testdata/fuzz/**) plus the f.Add
# seeds through every fuzz target, without engaging the fuzzing engine.
fuzz-seeds:
	$(GO) test -run=Fuzz ./internal/codec ./internal/text ./internal/storage ./internal/indexfile ./internal/livedex

# Short exploratory fuzzing of every target (not part of ci; minutes).
fuzz:
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=60s ./internal/codec
	$(GO) test -fuzz=FuzzTokenize -fuzztime=60s ./internal/text
	$(GO) test -fuzz=FuzzParseFaultSchedule -fuzztime=60s ./internal/storage
	$(GO) test -fuzz=FuzzPageFileHeader -fuzztime=60s ./internal/indexfile
	$(GO) test -fuzz=FuzzDeltaAppend -fuzztime=60s ./internal/livedex

# Coverage floor: the evaluation core and the refinement workload
# generator must stay at or above 80% statement coverage — the
# metamorphic exactness machinery lives there and silent coverage
# rot is how exactness bugs sneak in. cover-floor reads each package's
# total off $(COVER_PROFILE) (ci writes it for the whole suite; `make
# cover` for just these two packages).
COVER_FLOOR := 80.0
COVER_PROFILE ?= /tmp/bufir-cover.out
define cover-floor
	@for pkg in internal/eval internal/refine; do \
		grep -E "^(mode:|bufir/$$pkg/[^/]+:)" $(COVER_PROFILE) > $(COVER_PROFILE).pkg || exit 1; \
		pct=$$($(GO) tool cover -func=$(COVER_PROFILE).pkg | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "cover ./$$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {print (p+0 >= f+0) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then \
			echo "cover: ./$$pkg below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
	done
endef
cover:
	@$(GO) test -count=1 -coverprofile=$(COVER_PROFILE) ./internal/eval ./internal/refine >/dev/null
	$(cover-floor)

# Fault smoke gate: the seeded-fault regression tests of every layer —
# loader retry/backoff, waiter re-attempt, residency-at-failure, victim
# backpressure, the pinned serial fault trace, the eval fault budget, and
# the engine chaos invariants — under -race. The chaos runs depend on
# goroutine interleaving, so they run ten times (ci runs this second
# half after its suite pass).
.PHONY: faults-smoke
faults-smoke:
	$(GO) test -race -count=1 \
		-run 'TestLoaderRetries|TestRetryBudget|TestPermanentFault|TestWaiterReattempts|TestFailedLoadDrops|TestVictimWait|TestSerialShardedFaultParity|TestChaos|TestFaultBudget|TestFault' \
		./internal/buffer ./internal/eval ./internal/storage .
	$(GO) test -race -count=10 -run TestChaos ./internal/engine

bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

# Compare two sets of repo-benchmark result lines (each written with
# `bash benchmark/run.sh ... --out FILE`): one row per workload and
# end-to-end metric with both medians, the bound and the verdict; exits
# 1 when a row regressed. See benchmark/README.md, "Comparing two
# commits".
PARENT ?= parent.jsonl
CHANGE ?= change.jsonl
bench-compare:
	bash benchmark/run.sh -compare $(PARENT) $(CHANGE)

# The tracked size numbers of ROADMAP aim 2: non-test Go lines and
# package count outside the benchmark module, and product lines — the
# non-test lines outside the experiment harness (internal/experiments,
# cmd/irbench) as well (ROADMAP item 21). All should go down. The
# fourth line, test Go lines, shows code that moved into _test.go
# files: such a move lowers the first number without being a
# reduction. The fifth, test-support lines, counts the non-test files
# of the conformance suites (storetest, indextest, policytest), which
# the first line includes and only tests import.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l | awk '{print $$1, "non-test Go lines"}'
	@$(GO) list ./... | wc -l | awk '{print $$1, "packages"}'
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path './internal/experiments/*' ! -path './cmd/irbench/*' | xargs cat | wc -l | awk '{print $$1, "product lines"}'
	@find . -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l | awk '{print $$1, "test Go lines"}'
	@find ./internal/storage/storetest ./internal/indextest ./internal/buffer/policytest -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | awk '{print $$1, "test-support lines"}'

# The PageStore conformance suite under -race: every backend — the
# in-memory simulator, the file-backed store over both access paths
# (mmap and pread) and the live-index overlay — held to the identical
# read/accounting/context/fault contract; and every backend that
# decodes its pages (the file store, and the fault layer over it) held
# to the ReadInto contract the buffer manager's recycling relies on.
storetest:
	$(GO) test -race -count=1 -run 'TestPageStoreConformance|TestReadIntoConformance|TestFileStore|TestOpenFileStore' ./internal/storage
	$(GO) test -race -count=1 -run 'TestOverlayConformance' ./internal/livedex

# Price one logical page read on every backend (simulator counter bump
# vs real file I/O + checksum + decompression). A developer target, not
# part of ci: the numbers are timing only. Raise BENCHTIME for stable
# numbers.
BENCHTIME ?= 100x
bench-store:
	$(GO) test -run '^$$' -bench=BenchmarkPageStore -benchtime=$(BENCHTIME) ./internal/storage

# Replacement-policy family gate under -race: the policytest contract
# suite (Victim/Removed/pin/Flush/failed-load, hits reaching Touched,
# the sharded-manager properties and the single-shard replay) over the
# product's LRU, MRU, RAP and RAP-headfirst in internal/buffer and over
# the extension policies LRU-2, 2Q and ADAPTIVE (built by
# experiments.NewPolicy) in internal/experiments; the extension
# policies' unit tests (LRU-2's order, 2Q's ghost hygiene and bounded
# memory, ADAPTIVE's reweighting); the victim goldens of RAP and
# RAP-headfirst (recorded from the frame-heap RAP) and of ADAPTIVE, all
# compared literally; RAP against its brute-force oracle and its
# structure invariants, the lost-update race of the weight-delta path,
# RAP's latch-free hits and the fetch/unpin/cancel/fault stress on tiny
# 2-shard pools; the E26 drift smoke/determinism tests; and the
# root-level end-to-end family tests (the three public policies through
# Session/Engine/Router with bit-identical 1-worker replay, and the
# extension names refused with ErrUnknownPolicy).
policy-conformance:
	$(GO) test -race -count=1 \
		-run 'TestPolicyConformance|TestShardedManagerProperties|TestSingleShardReplaysSerialManager|TestLRUK|TestTwoQ|TestAdaptive|TestGhostList|TestSequentialScanDefeatsAll|TestGoldenVictims|TestRAP|TestAnnouncementsNotLost|TestHitsReachTouchers|TestFetchStress|TestDrift|TestPolicyFamily' \
		./internal/buffer ./internal/experiments .

# What the buffer manager pays per policy call (BenchmarkPolicyOps:
# SetQuery for a one-term refinement step, Victim with 0 and 2 pinned
# frames, Admitted+Removed) per policy × pool {512, 4096, 32768} ×
# users {1, 16}, with allocations. The default runs every case once —
# the ci smoke, so the benchmark cannot rot, not a gate on the numbers;
# POLICYOPS_BENCHTIME=2000x gives numbers worth recording.
POLICYOPS_BENCHTIME ?= 1x
bench-policyops:
	$(GO) test -run '^$$' -bench PolicyOps -benchtime $(POLICYOPS_BENCHTIME) ./internal/buffer

# What one page fetch costs (BenchmarkFetch: FetchContext+Unpin on a
# 2-shard pool, warm hits and a miss-and-evict cycle over the simulator
# and over an mmap'd file store, per {LRU, RAP} × {1, 4, 16}
# goroutines), in ns/op and allocs/op. The default runs
# every case once — the ci smoke, not a gate on the numbers;
# FETCH_BENCHTIME=1s gives numbers worth recording.
FETCH_BENCHTIME ?= 1x
bench-fetch:
	$(GO) test -run '^$$' -bench Fetch -benchtime $(FETCH_BENCHTIME) ./internal/buffer

# The workload-drift sweep (E26): every replacement policy through one
# continuous refine -> churn -> fault-storm stream per buffer size,
# persisting per-phase disk reads and the ADAPTIVE acceptance verdict
# (tracks the winning static expert in each phase while each static
# policy loses one) as BENCH_policy.json. The sweep is deterministic,
# so ci fails unless the file comes out equal to the committed one.
bench-policy:
	@$(GO) run ./cmd/irbench -exp drift -benchjson BENCH_policy.json
	@echo "wrote BENCH_policy.json"

# Exactness gate under -race: exact evaluation (MAXSCORE, which is
# FULL: unfiltered DF) held to the brute-force oracle (bruteForce, a
# plain cosine over the raw lists) and to exhaustive DF — the metamorphic
# suites across corpus scales, buffer sizes, the product's policies,
# fault schedules and cancellation, and the bruteForce unit tests — then
# the root-level session, engine and router tests (cross-shard tie-break
# and IDF edge cases included), the E27 smoke run and E27's exactness
# under the extension policies.
ranksafe-exactness:
	$(GO) test -race -count=1 \
		-run 'TestMetamorphicSafe|TestFullEvaluationMatchesBruteForce|TestAllSchedulesBitIdentical|TestNeverMorePages|TestDuplicateEntries|TestExhaustionEquals|TestFilterMatchesModel' \
		./internal/eval
	$(GO) test -race -count=1 \
		-run 'TestRankSafe|TestExtensionPoliciesRankSafe|TestSessionSafeMethods|TestEngineSafeMethod|TestRouterSafeMethods|TestRouterCrossShardEqualScoreTieBreak|TestSearchIDFEdge|TestParseAlgorithm' \
		./internal/experiments .

# Smoke for BenchmarkEvaluate (the evaluator's bookkeeping in ns/entry
# and allocs over candidates × lists × method: exact MAXSCORE (= FULL),
# plus DF and BAF under TunedParams on the 40 000-document collection —
# the layer the repository benchmark's outside-in trace reports as one
# number): one iteration per case, so the benchmark cannot rot. Not a
# gate on the numbers; -benchtime 200x gives numbers worth recording.
bench-eval:
	$(GO) test -run '^$$' -bench Evaluate -benchtime 1x ./internal/eval

# The rank-safe frontier sweep (E27): exact evaluation (FULL) vs the
# DF/BAF filters across buffer sizes and policies, persisting pages
# read, overlap@20, per-cell exactness and the acceptance verdict (FULL
# exact in every cell) as BENCH_ranksafe.json. Deterministic too, and
# gated by ci the same way.
bench-ranksafe:
	@$(GO) run ./cmd/irbench -exp ranksafe -points 4 -benchjson BENCH_ranksafe.json
	@echo "wrote BENCH_ranksafe.json"

# The Index-port conformance suite under -race: every backend — the
# in-memory simulator, the paged file store over both access paths, and
# the live delta-overlay in memory-resident and file-generation flavors
# — held to the same read-equivalence / delivered-pages / epoch
# monotonicity / swap-isolation contract (internal/indextest).
indextest:
	$(GO) test -race -count=1 -run 'TestIndexConformance' .
	$(GO) test -race -count=1 ./internal/livedex

# Live-ingestion exactness gate under -race: the metamorphic harness —
# random Add/Search/Refine/merge interleavings across every
# evaluation method, a policy rotation, a transient fault schedule and
# cancellation, every answer compared bit-for-bit against a
# from-scratch rebuild of the current corpus — plus the epoch
# staleness regressions (a user's resubmission after an ingest or a
# merge rebinds to the new generation's cold pool).
ingest-exactness:
	$(GO) test -race -count=1 \
		-run 'TestIngestExactness|TestEngineRebinds' .

# The concurrency experiment: QPS/latency vs. worker count and the
# 1-worker exactness verification against the serial E12 run.
concurrency:
	$(GO) run ./cmd/irbench -exp concurrency

# The observability experiment: histogram/gauge report plus the
# /metrics self-scrape consistency check; holds the endpoint 30s so it
# can be curl'ed from another terminal.
obs:
	$(GO) run ./cmd/irbench -exp obs -obshold 30s

# The fault-rate sweep (E23): completed/degraded/error mix and
# overlap@20 vs the fault-free reference.
faults:
	$(GO) run ./cmd/irbench -exp faults

# Long randomized chaos run (not part of ci; minutes): the engine- and
# buffer-level chaos tests looped under -race with fresh schedules.
chaos:
	$(GO) test -race -count=20 -run 'TestChaosServingInvariants|TestChaosCounterInvariants' \
		./internal/engine ./internal/buffer
