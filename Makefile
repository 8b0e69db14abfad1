# Developer entry points. `make check` is the full gate the CI (and
# every PR) must pass: formatting, vet, build, the test suite under
# the race detector, and the benchmark module's own vet and tests.

GO ?= go

.PHONY: all check fmt vet build test race identity determinism vsbench-smoke bench bench-json fabric-smoke fuzz loc clean

all: check

check: fmt vet build race identity determinism vsbench-smoke

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

# identity pins the (identity scenario, vs summarizer) workload cell to
# the committed golden digest across every execution strategy — full
# execution, unbucketed resumes, bucket batching, an explicit static
# planner round and an in-process fabric cluster — plus the
# byte-identity tests at the generator, adapter and registry seams, and
# the per-region sweep (internal/fault) of batched execution, with its
# window clip and decode-boundary resumes, against cutoff-free
# re-execution of every plan, the composite-region sweep over the
# composite's interior boundaries, the compact canvas snapshot and
# state-compare tests (internal/warp, internal/stitch), the
# resume-boundary report and the checkpoint schema drift pin. Run it
# after touching any layer of the workload path.
identity:
	$(GO) test -count=1 -run 'TestCampaignBatchingRegionSweep|TestComposite|TestCanvasSnapshot|TestResumeReportsOwnBoundaryFirst|TestCheckpointSchemaDrift|TestIdentityCell|TestIdentityScenarioByteIdentical|TestVSAdapterByteIdentical|TestCellIdentityMatchesVSConstructor|TestVSConstructorKeyUnchanged' . ./internal/virat/ ./internal/summarize/ ./internal/campaign/ ./internal/fault/ ./internal/stitch/ ./internal/warp/ ./internal/vs/

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
determinism:
	$(GO) test -count=1 -run 'TestAdaptiveDeterministic|TestAdaptiveStratumStreamsIndependent|TestAdaptiveCampaignDeterministicAcrossExecution|TestAdaptiveCancellationMidRound|TestClusterAdaptive|TestCoordinatorRestartAdaptive|TestSession' ./internal/plan/ ./internal/campaign/ ./internal/fabric/ ./internal/fault/

# vsbench-smoke vets and tests the benchmark module (cmd/vsbench, a Go
# module of its own): the root `go build ./...` does not compile it, so
# an API change in campaign or fabric would otherwise break it unseen.
vsbench-smoke:
	$(GO) -C cmd/vsbench vet ./...
	$(GO) -C cmd/vsbench test ./...

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
# to a prefix of its records.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 20s ./internal/journal/

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
loc:
	@echo "non-test:                $$(git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "non-test w/o cmd/vsbench: $$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^cmd/vsbench/' | xargs cat | wc -l)"
	@echo "test:                    $$(git ls-files '*.go' | grep '_test\.go$$' | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
	rm -f vsd.journal bench.out
