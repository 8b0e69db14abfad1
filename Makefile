# Developer entry points. `make check` is the full gate the CI (and
# every PR) must pass: formatting, vet, build, the test suite under
# the race detector, and the benchmark module's own vet and tests.

GO ?= go

.PHONY: all check fmt vet build test race identity determinism mutants vsbench-smoke afirun-smoke bench bench-json fabric-smoke fuzz loc clean

all: check

check: fmt vet build race identity determinism mutants vsbench-smoke afirun-smoke

# fmt fails if any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment harnesses run reduced-scale campaigns that are still
# heavy under the race detector, so the race gate needs more than the
# default 10m package timeout.
race:
	$(GO) test -race -timeout 45m ./...

# check-run fails when an alternative of the -run pattern $(1) names no
# test, example or fuzz target in the packages $(2) (`go test -list`),
# so a renamed or deleted test cannot silently drop out of a gate.
check-run = list="$$($(GO) test -list . $(2))" || { echo "$$list"; exit 1; }; \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
	  echo "$$list" | grep -E '^(Test|Example|Fuzz)' | grep -Eq -- "$$alt" || \
	    { echo "$@: -run alternative $$alt matches no test in $(2)"; exit 1; }; \
	done

# identity pins the (identity scenario, vs summarizer) workload cell to
# the committed golden digest across every execution strategy — full
# execution, unbucketed resumes, bucket batching, an explicit static
# planner round and an in-process fabric cluster — plus the
# byte-identity tests at the generator, adapter and registry seams, and
# internal/fault's reference matrix: every class × region row of
# batched execution (window clip, decode-boundary and composite
# resumes, convergence), plain resumes, checkpoint-free goldens and the
# generic instrumented kernels against cutoff-free re-execution of every
# plan, with the inert-kernel skip bound pinned on its own
# (TestCanSkipTaps, TestInertUnits) and the per-unit inert splits of the
# warp rows, ORB key points and match queries checked against the
# instrumented loops (TestInertWarpRowSplit, TestInertDescribeSplit,
# TestInertMatchSplit), the golden feature replay of FAST rows and ORB
# key points (TestInertFASTRowSplit, TestGoldenDescribeSplit,
# TestDetectFrameReplay) and its frame-identity key
# (TestGoldenRecordsNeedGoldenFrames), the golden replay of RANSAC
# sampling iterations (TestInertRANSACSplit,
# TestSearchReplayMatchesEstimate) and its input-identity key
# (TestGoldenSearchNeedsGoldenInputs). Also the composite and registration boundary
# tests, the canvas snapshot and RANSAC split tests (internal/stitch,
# internal/warp, internal/ransac), the live-state compare and the
# converged-hang arithmetic (internal/vs, internal/fault), the
# resume-boundary report and the checkpoint schema drift pin. Run it
# after touching any layer of the workload path.
IDENTITY_RUN = TestReferenceMatrix|TestCanSkipTaps|TestInertUnits|TestInertWarpRowSplit|TestInertDescribeSplit|TestInertMatchSplit|TestComposite|TestAlignBoundaries|TestAlignStateEqualLive|TestSearchSplitMatchesEstimate|TestStateEqualLiveState|TestConvergedTrialHangs|TestCanvasSnapshot|TestResumeReportsOwnBoundaryFirst|TestCheckpointSchemaDrift|TestIdentityCell|TestIdentityScenarioByteIdentical|TestVSAdapterByteIdentical|TestCellIdentityMatchesVSConstructor|TestVSConstructorKeyUnchanged|TestInertFASTRowSplit|TestGoldenDescribeSplit|TestDetectFrameReplay|TestGoldenRecordsNeedGoldenFrames|TestInertRANSACSplit|TestSearchReplayMatchesEstimate|TestGoldenSearchNeedsGoldenInputs
IDENTITY_PKGS = . ./internal/virat/ ./internal/summarize/ ./internal/campaign/ ./internal/fault/ ./internal/stitch/ ./internal/warp/ ./internal/vs/ ./internal/ransac/ ./internal/features/ ./internal/match/ ./internal/fabric/
identity:
	@$(call check-run,$(IDENTITY_RUN),$(IDENTITY_PKGS))
	$(GO) test -count=1 -run '$(IDENTITY_RUN)' $(IDENTITY_PKGS)

# determinism pins the adaptive planner's reproducibility promise: the
# confidence-driven trial set must be bit-identical across seeds,
# worker counts, round-shard counts, resume and a live cluster — and,
# since the executor went persistent, across session-window
# decompositions, mid-round cancellation/resume and lease-to-lease
# session reuse (the TestSession* equivalence suites) — and on the
# staged VS workload, whose trials resume from and converge at the
# composite's interior boundaries, against full execution
# (TestAdaptiveDeterministicCompositeBoundaries). Run it after
# touching internal/plan or either round loop (campaign runRounds,
# fabric Coordinator.drive).
DETERMINISM_RUN = TestAdaptiveDeterministic|TestAdaptiveStratumStreamsIndependent|TestAdaptiveCampaignDeterministicAcrossExecution|TestAdaptiveCancellationMidRound|TestClusterAdaptive|TestCoordinatorRestartAdaptive|TestSession
DETERMINISM_PKGS = ./internal/plan/ ./internal/campaign/ ./internal/fabric/ ./internal/fault/
determinism:
	@$(call check-run,$(DETERMINISM_RUN),$(DETERMINISM_PKGS))
	$(GO) test -count=1 -run '$(DETERMINISM_RUN)' $(DETERMINISM_PKGS)

# mutants measures the suite itself: cmd/mutants applies each source
# mutation of cmd/mutants/catalogue.json, one at a time, to a copy of
# the tree and runs the tests the entry names (one go test process at a
# time). Every mutant must be killed, or marked equivalent with the
# reason in the catalogue. DESIGN §17 says how to add one.
mutants:
	$(GO) run ./cmd/mutants

# vsbench-smoke vets and tests the benchmark module (cmd/vsbench, a Go
# module of its own): the root `go build ./...` does not compile it, so
# an API change in campaign or fabric would otherwise break it unseen.
vsbench-smoke:
	$(GO) -C cmd/vsbench vet ./...
	$(GO) -C cmd/vsbench test ./...

# afirun-smoke runs cmd/afirun end to end at test scale — a fixed
# budget, -adaptive and -stratified, about a second each — and checks
# that each run prints its outcome table: the four outcome rows, or the
# weighted estimate (and, adaptive, the convergence line).
AFIRUN = $(GO) run ./cmd/afirun -input 2 -scale test -frames 8 -seed 1
afirun-smoke:
	@out="$$($(AFIRUN) -trials 200)" && echo "$$out" && \
	  [ "$$(echo "$$out" | grep -Ec '^(Mask|Crash|SDC|Hang) +[0-9]+ +[01]\.[0-9]{3}$$')" = 4 ] || \
	  { echo "afirun-smoke: fixed-budget outcome table missing"; exit 1; }
	@out="$$($(AFIRUN) -adaptive -precision 0.1)" && echo "$$out" && \
	  echo "$$out" | grep -Eq '^weighted estimate \([0-9]+ trials, [0-9]+ rounds\): Mask [01]\.[0-9]{3} Crash [01]\.[0-9]{3} SDC [01]\.[0-9]{3} Hang [01]\.[0-9]{3}$$' && \
	  echo "$$out" | grep -Eq '^(converged in|budget exhausted at) [0-9]+ trials' || \
	  { echo "afirun-smoke: adaptive estimate missing"; exit 1; }
	@out="$$($(AFIRUN) -trials 200 -stratified)" && echo "$$out" && \
	  echo "$$out" | grep -Eq '^weighted estimate \([0-9]+ trials\): Mask [01]\.[0-9]{3} Crash [01]\.[0-9]{3} SDC [01]\.[0-9]{3} Hang [01]\.[0-9]{3}$$' || \
	  { echo "afirun-smoke: stratified estimate missing"; exit 1; }

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fabric-smoke drives the in-process cluster: an HTTP coordinator, two
# live workers, one worker killed mid-campaign (lease expiry +
# reassignment), and a coordinator restart from its journal — plus the
# shared journal's own tests — all under the race detector. Fast enough
# to run before pushing fabric changes. It also checks that a shard
# result too large to journal fails its campaign instead of being
# leased again forever.
fabric-smoke:
	$(GO) test -race -count=1 -run 'TestCluster|TestCoordinatorRestart|TestOversize|TestLog|TestReplay|TestRewrite' ./internal/fabric/ ./internal/journal/

# fuzz runs journal replay on arbitrary bytes and on valid journals cut
# at every byte: replay must never panic, and a cut journal must replay
# to a prefix of its records. Then it decodes arbitrary JSON into a
# campaign request: Validate must never panic, and an accepted request
# must stay inside the trial, worker and frame limits.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 20s ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzRequest -fuzztime 20s ./internal/campaign/

# bench-json refreshes the "after" section of the committed benchmark
# ledger from the root-package perf benchmarks (the figure harness
# benchmarks are too slow to gate on) and prints per-metric deltas
# against the ledger's "before" section. The campaign-throughput and
# adaptive-campaign benchmarks gate (>10% regression fails); the
# micro-benchmarks stay advisory — they are too noisy to block on.
# -cpu 2 pins GOMAXPROCS so ledger sections (and the CI bench job,
# which runs at the same count) compare like for like: benchdiff
# records each benchmark's procs and fails a gated comparison across
# different counts.
BENCH_JSON ?= BENCH_13.json
BENCH_GATE ?= BenchmarkCampaignThroughput|BenchmarkAdaptiveCampaign
bench-json:
	$(GO) test -run '^$$' -bench 'Pipeline|CampaignThroughput|AdaptiveCampaign|Composite|BucketRestore' -benchtime 3x -cpu 2 . | tee bench.out
	$(GO) run ./cmd/benchdiff parse -label after -in bench.out -out $(BENCH_JSON)
	$(GO) run ./cmd/benchdiff compare -in $(BENCH_JSON) -gate '$(BENCH_GATE)' -threshold 0.10
	rm -f bench.out

# loc prints the Go line counts of the tracked files: non-test code,
# non-test code outside the benchmark module (cmd/vsbench), and tests.
# The test-support package internal/faulttest, which only tests import,
# counts as test code.
TESTLIKE = _test\.go$$|^internal/faulttest/
loc:
	@echo "non-test:                $$(git ls-files '*.go' | grep -Ev '$(TESTLIKE)' | xargs cat | wc -l)"
	@echo "non-test w/o cmd/vsbench: $$(git ls-files '*.go' | grep -Ev '$(TESTLIKE)' | grep -v '^cmd/vsbench/' | xargs cat | wc -l)"
	@echo "test:                    $$(git ls-files '*.go' | grep -E '$(TESTLIKE)' | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
	rm -f vsd.journal bench.out
