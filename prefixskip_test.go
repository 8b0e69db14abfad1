// Golden-prefix checkpointing at campaign level: the bucket scheduler's
// exported statistics, and the drift guard that pins the golden
// checkpoint geometry itself to the checkpoint schema version. That
// resumed, bucketed and converged trials classify exactly as full
// execution is internal/fault's TestReferenceMatrix.
package vsresil_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
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

	full, err := runner.Run(context.Background(), fullSpec(t, skipGuardSpec(fault.GPR, fault.RAny, 2)))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if s := full.Fault.Sched; s.Buckets != 0 || s.Batched != 0 || len(s.BucketSizes) != 0 || s.Converged != 0 {
		t.Errorf("full-execution run reported bucket activity: %+v", s)
	}
}

// fullSpec returns spec with a checkpoint-free golden: the campaign
// runs every trial from tap zero.
func fullSpec(t *testing.T, spec campaign.Spec) campaign.Spec {
	t.Helper()
	spec.Golden = faulttest.FullGolden(t, spec.Workload.App)
	return spec
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
	4: 0xc7f8ac6c40e91ab0, // adds "pair[i]/<model>@k" after matching and every stitch.RANSACEvery sampling iterations
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
