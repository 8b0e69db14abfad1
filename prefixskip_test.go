// Campaign-level bit-exactness guards for golden-prefix checkpointing:
// resuming a trial from the latest golden stage boundary before its
// injection site must not change a single campaign observable —
// outcome counts, crash split, coverage histograms, rate curve,
// retained SDC output bytes or any per-trial verdict — across fault
// classes, regions, worker counts and shard decompositions. The drift
// guard at the bottom pins the golden checkpoint geometry itself to
// the checkpoint schema version.
package vsresil_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"vsresil/internal/campaign"
	"vsresil/internal/fastpath"
	"vsresil/internal/fault"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// skipGuardSpec is the fixed campaign the prefix-skip guards run: the
// bench workload's input at a seed that produces a healthy mix of
// masks, crashes, SDCs and landed faults in 40 trials.
func skipGuardSpec(class fault.Class, region fault.Region, workers int) campaign.Spec {
	p := virat.TestScale()
	p.Frames = 8
	frames := virat.Input2(p).Frames()
	return campaign.Spec{
		Workload: campaign.VSApp(vs.DefaultConfig(vs.AlgVS), frames, "guard", ""),
		Class:    class,
		Region:   region,
		Trials:   40,
		Seed:     0x5EED5,
		Workers:  workers,
		SDC:      campaign.SDCPolicy{Keep: true},
	}
}

// requireIdenticalWithOutputs extends requireIdentical with the
// retained SDC output bytes, so a resumed trial that produced a
// subtly different corrupted panorama cannot slip through.
func requireIdenticalWithOutputs(t *testing.T, label string, a, b *fault.Result) {
	t.Helper()
	requireIdentical(t, label, a, b)
	for i := range a.Trials {
		if !bytes.Equal(a.Trials[i].Output, b.Trials[i].Output) {
			t.Errorf("%s: trial %d SDC output bytes differ", label, i)
		}
	}
}

// TestCampaignPrefixSkipEquivalence sweeps every fault class and
// region (whole-program plus each function scope that exposes taps)
// and checks that prefix skipping is bit-identical to full execution.
func TestCampaignPrefixSkipEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	defer fastpath.SetPrefixSkip(true)
	var runner campaign.Runner
	regions := []fault.Region{fault.RAny}
	for r := fault.Region(0); r < fault.NumRegions; r++ {
		regions = append(regions, r)
	}
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for _, region := range regions {
			spec := skipGuardSpec(class, region, runtime.GOMAXPROCS(0))
			label := fmt.Sprintf("class=%v region=%v", class, region)

			fastpath.SetPrefixSkip(false)
			full, errFull := runner.Run(context.Background(), spec)
			fastpath.SetPrefixSkip(true)
			skipped, errSkip := runner.Run(context.Background(), spec)

			if errors.Is(errFull, fault.ErrNoTaps) && errors.Is(errSkip, fault.ErrNoTaps) {
				continue // this region has no sites for this class
			}
			if errFull != nil || errSkip != nil {
				t.Fatalf("%s: full err=%v skip err=%v", label, errFull, errSkip)
			}
			requireIdenticalWithOutputs(t, label, full.Fault, skipped.Fault)
		}
	}
}

// TestCampaignPrefixSkipWorkerEquivalence checks that skipping keeps
// the result independent of trial parallelism: checkpoint state shared
// across concurrently resuming workers must stay read-only.
func TestCampaignPrefixSkipWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	defer fastpath.SetPrefixSkip(true)
	var runner campaign.Runner

	fastpath.SetPrefixSkip(true)
	serial, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, 1))
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	parallel, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatalf("workers=GOMAXPROCS: %v", err)
	}
	requireIdenticalWithOutputs(t, "skipping workers=1 vs GOMAXPROCS", serial.Fault, parallel.Fault)

	fastpath.SetPrefixSkip(false)
	full, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, 1))
	if err != nil {
		t.Fatalf("full workers=1: %v", err)
	}
	requireIdenticalWithOutputs(t, "skipping vs full execution", serial.Fault, full.Fault)
}

// TestCampaignPrefixSkipShardEquivalence checks that every shard
// buckets its plan window against the shared checkpointed golden
// exactly as the unsharded full-execution campaign would.
func TestCampaignPrefixSkipShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	defer fastpath.SetPrefixSkip(true)
	var runner campaign.Runner

	fastpath.SetPrefixSkip(false)
	base, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatalf("unsharded full run: %v", err)
	}
	fastpath.SetPrefixSkip(true)
	for _, k := range []int{1, 2, 5} {
		merged, err := runner.RunSharded(context.Background(),
			skipGuardSpec(fault.GPR, fault.RAny, runtime.GOMAXPROCS(0)), k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		requireIdenticalWithOutputs(t, fmt.Sprintf("skipping shards k=%d vs full unsharded", k),
			base.Fault, merged.Fault)
	}
}

// TestCampaignBatchingEquivalenceMatrix is the bucket-scheduler bit-
// identity guard: for both fault classes it compares every combination
// of batching on/off × tiling on/off × workers {1,4} × shards {1,5}
// against the classic one-trial-at-a-time execution (batching and
// tiling both off, one worker, unsharded). Identical here means every
// campaign observable requireIdenticalWithOutputs checks, including
// the retained SDC output bytes — neither the checkpoint buckets, nor
// the early-mask/convergence cutoffs, nor the tiled inert kernels may
// shift a single trial's verdict.
func TestCampaignBatchingEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence matrix is not -short")
	}
	defer func() {
		fastpath.SetBatching(true)
		fastpath.SetTiling(true)
	}()
	var runner campaign.Runner
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		fastpath.SetBatching(false)
		fastpath.SetTiling(false)
		base, err := runner.Run(context.Background(), skipGuardSpec(class, fault.RAny, 1))
		if err != nil {
			t.Fatalf("class=%v baseline: %v", class, err)
		}
		for _, batching := range []bool{false, true} {
			for _, tiling := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					for _, shards := range []int{1, 5} {
						if !batching && !tiling && workers == 1 && shards == 1 {
							continue // that is the baseline itself
						}
						fastpath.SetBatching(batching)
						fastpath.SetTiling(tiling)
						label := fmt.Sprintf("class=%v batching=%v tiling=%v workers=%d shards=%d",
							class, batching, tiling, workers, shards)
						got, err := runner.RunSharded(context.Background(),
							skipGuardSpec(class, fault.RAny, workers), shards)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						requireIdenticalWithOutputs(t, label, base.Fault, got.Fault)
					}
				}
			}
		}
	}
}

// TestCampaignBatchingRegionSweep extends the matrix's RAny guard to
// every region with taps: for both classes, batching on (with its
// suffix cutoffs) at GOMAXPROCS workers must match the classic
// baseline (batching off, one worker), retained SDC bytes included.
// Region-scoped plans are where the window clip fires — RApp has a
// single tap, so its plans close at the golden run's last in-scope tap
// — and decode-region plans are where the tap-zero decode boundary
// turns full runs into bucketed, guarded resumes.
func TestCampaignBatchingRegionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	defer fastpath.SetBatching(true)
	var runner campaign.Runner
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for r := fault.Region(0); r < fault.NumRegions; r++ {
			label := fmt.Sprintf("class=%v region=%v", class, r)
			classic, batched := skipGuardSpec(class, r, 1), skipGuardSpec(class, r, runtime.GOMAXPROCS(0))
			classic.Trials, batched.Trials = 100, 100
			fastpath.SetBatching(false)
			base, errBase := runner.Run(context.Background(), classic)
			fastpath.SetBatching(true)
			got, errGot := runner.Run(context.Background(), batched)
			if errors.Is(errBase, fault.ErrNoTaps) && errors.Is(errGot, fault.ErrNoTaps) {
				continue // this region has no sites for this class
			}
			if errBase != nil || errGot != nil {
				t.Fatalf("%s: classic err=%v batched err=%v", label, errBase, errGot)
			}
			requireIdenticalWithOutputs(t, label, base.Fault, got.Fault)
		}
	}
}

// TestCampaignBatchingSchedStats sanity-checks the exported scheduler
// statistics: a batched run of the guard workload must actually bucket
// trials (the whole point of the scheduler) and report the restore
// arithmetic consistently, while a batching-off run must report none.
func TestCampaignBatchingSchedStats(t *testing.T) {
	defer fastpath.SetBatching(true)
	var runner campaign.Runner

	fastpath.SetBatching(true)
	batched, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, 2))
	if err != nil {
		t.Fatalf("batched: %v", err)
	}
	s := batched.Fault.Sched
	if s.Buckets == 0 || s.Batched == 0 {
		t.Fatalf("batched run reported no buckets: %+v", s)
	}
	if s.RestoresSaved != s.Batched-s.Buckets {
		t.Errorf("RestoresSaved = %d, want Batched-Buckets = %d", s.RestoresSaved, s.Batched-s.Buckets)
	}
	if len(s.BucketSizes) != s.Buckets {
		t.Errorf("len(BucketSizes) = %d, want %d", len(s.BucketSizes), s.Buckets)
	}
	total := 0
	for _, n := range s.BucketSizes {
		total += n
	}
	if total != s.Batched {
		t.Errorf("sum(BucketSizes) = %d, want Batched = %d", total, s.Batched)
	}

	fastpath.SetBatching(false)
	classic, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, 2))
	if err != nil {
		t.Fatalf("classic: %v", err)
	}
	if s := classic.Fault.Sched; s.Buckets != 0 || s.Batched != 0 || s.EarlyMasks != 0 || s.Converged != 0 {
		t.Errorf("batching-off run reported scheduler activity: %+v", s)
	}
}

// checkpointDigests pins, per checkpoint schema version, an FNV-1a
// digest of the guard workload's golden checkpoint stream (boundary
// names and per-class tap counters). If a pipeline change moves a
// stage boundary or the taps between boundaries, this digest changes —
// and the test demands a CheckpointSchema bump, which is what keeps
// stale cached/serialized goldens from being resumed under the new
// layout.
var checkpointDigests = map[int]uint64{
	1: 0x3cf855ea88b931ae,
	2: 0xf5846b630bab54a7, // adds the tap-zero "decode" boundary
}

// TestCheckpointSchemaDrift fails when the golden stage-boundary tap
// counts change without a CheckpointSchema bump.
func TestCheckpointSchemaDrift(t *testing.T) {
	spec := skipGuardSpec(fault.GPR, fault.RAny, 1)
	golden, err := fault.CaptureGoldenStaged(spec.Workload.Staged)
	if err != nil {
		t.Fatalf("CaptureGoldenStaged: %v", err)
	}
	if len(golden.Checkpoints) == 0 {
		t.Fatal("staged golden capture recorded no checkpoints")
	}
	h := fnv.New64a()
	for _, cp := range golden.Checkpoints {
		fmt.Fprintf(h, "%s:%d:%d:%d;", cp.Name, cp.Counters.GPR, cp.Counters.FPR, cp.Counters.Steps)
	}
	digest := h.Sum64()
	want, ok := checkpointDigests[fault.CheckpointSchema]
	if !ok {
		t.Fatalf("no pinned digest for CheckpointSchema %d: add %#x to checkpointDigests",
			fault.CheckpointSchema, digest)
	}
	if digest != want {
		t.Fatalf("golden checkpoint stream drifted (digest %#x, pinned %#x for schema %d): "+
			"bump fault.CheckpointSchema and pin the new digest",
			digest, want, fault.CheckpointSchema)
	}
}
