// Campaign-level bit-exactness guards for golden-prefix checkpointing:
// resuming a trial from the latest golden stage boundary before its
// injection site must not change a single campaign observable —
// outcome counts, crash split, coverage histograms, rate curve,
// retained SDC output bytes or any per-trial verdict — across fault
// classes, regions and worker counts. The drift
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

// fullExecution returns spec with a golden captured from its app
// alone: the golden carries no checkpoints, so the campaign runs every
// trial from tap zero — the path any checkpoint-free golden takes.
func fullExecution(t *testing.T, spec campaign.Spec) campaign.Spec {
	t.Helper()
	golden, err := fault.CaptureGolden(spec.Workload.App)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	spec.Golden = golden
	return spec
}

// resumeOnly hides a staged app's fault.BatchStagedApp view: trials
// still resume from their latest golden checkpoint, but each through
// plain Resume, with no shared bucket preparation and no convergence
// guard.
type resumeOnly struct{ fault.StagedApp }

// TestCampaignPrefixSkipEquivalence sweeps every fault class and
// region (whole-program plus each function scope that exposes taps)
// and checks that prefix skipping is bit-identical to full execution.
func TestCampaignPrefixSkipEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	t.Parallel()
	var runner campaign.Runner
	regions := []fault.Region{fault.RAny}
	for r := fault.Region(0); r < fault.NumRegions; r++ {
		regions = append(regions, r)
	}
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for _, region := range regions {
			spec := skipGuardSpec(class, region, runtime.GOMAXPROCS(0))
			label := fmt.Sprintf("class=%v region=%v", class, region)

			full, errFull := runner.Run(context.Background(), fullExecution(t, spec))
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
	t.Parallel()
	var runner campaign.Runner

	serial, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, 1))
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	parallel, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatalf("workers=GOMAXPROCS: %v", err)
	}
	requireIdenticalWithOutputs(t, "skipping workers=1 vs GOMAXPROCS", serial.Fault, parallel.Fault)

	full, err := runner.Run(context.Background(), fullExecution(t, skipGuardSpec(fault.GPR, fault.RAny, 1)))
	if err != nil {
		t.Fatalf("full workers=1: %v", err)
	}
	requireIdenticalWithOutputs(t, "skipping vs full execution", serial.Fault, full.Fault)
}

// TestCampaignBatchingEquivalenceMatrix is the executor bit-identity
// guard: for both fault classes it runs every input-selected execution
// path — full execution on the generic instrumented kernels, full
// execution on the machine's inert tiled kernels, per-trial checkpoint
// resumes (resumeOnly) and checkpoint buckets with convergence guards —
// at workers {1,4}, against the generic full execution at one worker.
// Identical here means every campaign
// observable requireIdenticalWithOutputs checks, including the
// retained SDC output bytes — neither the checkpoint buckets, nor the
// suffix cutoffs, nor the tiled inert kernels may shift a single
// trial's verdict.
func TestCampaignBatchingEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence matrix is not -short")
	}
	t.Parallel()
	modes := []struct {
		name  string
		input func(campaign.Spec) campaign.Spec
	}{
		{"full-generic", func(s campaign.Spec) campaign.Spec {
			vsApp, frames := guardApp()
			s.Workload.App = genericApp(vsApp, frames)
			return fullExecution(t, s)
		}},
		{"full", func(s campaign.Spec) campaign.Spec { return fullExecution(t, s) }},
		{"resumed", func(s campaign.Spec) campaign.Spec {
			s.Workload.Staged = resumeOnly{s.Workload.Staged}
			return s
		}},
		{"bucketed", func(s campaign.Spec) campaign.Spec { return s }},
	}
	var runner campaign.Runner
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		base, err := runner.Run(context.Background(), modes[0].input(skipGuardSpec(class, fault.RAny, 1)))
		if err != nil {
			t.Fatalf("class=%v baseline: %v", class, err)
		}
		for _, mode := range modes {
			for _, workers := range []int{1, 4} {
				if mode.name == modes[0].name && workers == 1 {
					continue // that is the baseline itself
				}
				label := fmt.Sprintf("class=%v mode=%s workers=%d", class, mode.name, workers)
				got, err := runner.Run(context.Background(), mode.input(skipGuardSpec(class, fault.RAny, workers)))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireIdenticalWithOutputs(t, label, base.Fault, got.Fault)
			}
		}
	}
}

// TestCampaignBatchingSchedStats sanity-checks the exported scheduler
// statistics: a run of the guard workload on its checkpointed golden
// must actually bucket trials (the whole point of the scheduler) and
// report the bucket histogram consistently, while a full-execution run
// (checkpoint-free golden) must report no buckets and no convergences.
func TestCampaignBatchingSchedStats(t *testing.T) {
	t.Parallel()
	var runner campaign.Runner

	batched, err := runner.Run(context.Background(), skipGuardSpec(fault.GPR, fault.RAny, 2))
	if err != nil {
		t.Fatalf("batched: %v", err)
	}
	s := batched.Fault.Sched
	if s.Buckets == 0 || s.Batched == 0 {
		t.Fatalf("batched run reported no buckets: %+v", s)
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

	full, err := runner.Run(context.Background(), fullExecution(t, skipGuardSpec(fault.GPR, fault.RAny, 2)))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if s := full.Fault.Sched; s.Buckets != 0 || s.Batched != 0 || len(s.BucketSizes) != 0 || s.Converged != 0 {
		t.Errorf("full-execution run reported bucket activity: %+v", s)
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
	3: 0xced995bbea6d261a, // adds "composite[i]" before every second warp of a segment
}

// TestCheckpointSchemaDrift fails when the golden stage-boundary tap
// counts change without a CheckpointSchema bump.
func TestCheckpointSchemaDrift(t *testing.T) {
	t.Parallel()
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
