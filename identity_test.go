// Identity-workload equivalence suite: the (identity scenario, vs
// summarizer, VS) registry cell must produce byte-for-byte the golden
// output the repo has always produced, and fault campaigns over it
// must stay bit-identical across every execution strategy — full
// execution, per-trial checkpoint resumes, the bucket scheduler, shard
// decompositions and a live fabric cluster (the last in internal/fabric,
// whose in-process cluster helpers it shares). A pinned FNV-64a digest
// anchors the whole chain to one constant: any drift in the generator,
// the summarizer seam, the registry or an executor shows up as a
// digest mismatch here before it can silently re-baseline the paper's
// numbers.
package vsresil_test

import (
	"context"
	"hash/fnv"
	"testing"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/plan"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// identityGoldenDigest pins the fault-free output of the identity cell
// on the 8-frame Input 2 test preset with app seed 0x5EED5 (FNV-64a of
// the encoded panorama set). Regenerate only for an intentional change
// to the generator or the VS pipeline.
const identityGoldenDigest = 0x8a7474734a0ab448

// identitySpec is the fixed fault campaign the equivalence runs share.
const (
	identityAppSeed  = 0x5EED5
	identityTrials   = 40
	identityInputNum = 2
)

// identityWorkload resolves the all-defaults registry cell on the
// suite's fixed preset. Rebuilt per campaign so no pipeline state is
// shared between runs.
func identityWorkload(t *testing.T) campaign.Workload {
	t.Helper()
	p := virat.TestScale()
	p.Frames = 8
	w, err := campaign.Cell{}.Workload(identityInputNum, p, identityAppSeed)
	if err != nil {
		t.Fatalf("identity cell workload: %v", err)
	}
	return w
}

func digestOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestIdentityCellPinnedDigest anchors the chain: the registry cell's
// golden output matches the pinned digest and the historical VS
// constructor byte-for-byte.
func TestIdentityCellPinnedDigest(t *testing.T) {
	t.Parallel()
	w := identityWorkload(t)
	golden, err := fault.CaptureGolden(w.App)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	if d := digestOf(golden.Output); d != identityGoldenDigest {
		t.Errorf("identity cell golden digest = %#016x, want %#016x (%d bytes)",
			d, uint64(identityGoldenDigest), len(golden.Output))
	}

	p := virat.TestScale()
	p.Frames = 8
	old := campaign.VS(vs.AlgVS, virat.Input2(p), identityAppSeed)
	oldGolden, err := fault.CaptureGolden(old.App)
	if err != nil {
		t.Fatalf("CaptureGolden(historical): %v", err)
	}
	if d := digestOf(oldGolden.Output); d != identityGoldenDigest {
		t.Errorf("historical VS constructor digest = %#016x, want %#016x", d, uint64(identityGoldenDigest))
	}
	if w.Key != old.Key {
		t.Errorf("cache keys diverged: cell %q vs constructor %q", w.Key, old.Key)
	}
}

// identityCampaignSpec is the fixed identity campaign.
func identityCampaignSpec(t *testing.T) campaign.Spec {
	t.Helper()
	return campaign.Spec{
		Workload: identityWorkload(t),
		Class:    fault.GPR,
		Region:   fault.RAny,
		Trials:   identityTrials,
		Seed:     identityAppSeed,
		Workers:  2,
	}
}

// runIdentitySpec executes spec.
func runIdentitySpec(t *testing.T, spec campaign.Spec) *campaign.Result {
	t.Helper()
	var runner campaign.Runner
	res, err := runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("identity campaign: %v", err)
	}
	return res
}

// runIdentityCampaign executes the fixed identity campaign.
func runIdentityCampaign(t *testing.T) *campaign.Result {
	t.Helper()
	return runIdentitySpec(t, identityCampaignSpec(t))
}

// TestIdentityCellExecutionModeEquivalence sweeps the execution
// strategies the input selects — full execution (a checkpoint-free
// golden) and per-trial resumes without buckets (faulttest.ResumeOnly) — and
// demands each reproduce the baseline run bit for bit, golden bytes
// still matching the pinned digest.
func TestIdentityCellExecutionModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("identity equivalence sweep is not -short")
	}
	t.Parallel()

	base := runIdentityCampaign(t)
	if d := digestOf(base.Fault.GoldenOutput); d != identityGoldenDigest {
		t.Errorf("baseline campaign golden digest = %#016x, want %#016x", d, uint64(identityGoldenDigest))
	}

	full := runIdentitySpec(t, fullSpec(t, identityCampaignSpec(t)))
	resumed := identityCampaignSpec(t)
	resumed.Workload.Staged = faulttest.ResumeOnly{StagedApp: resumed.Workload.Staged}
	noBatch := runIdentitySpec(t, resumed)

	faulttest.RequireIdentical(t, "full execution vs baseline", full.Fault, base.Fault)
	faulttest.RequireIdentical(t, "unbucketed resumes vs baseline", noBatch.Fault, base.Fault)
}

// TestIdentityCellStaticPlannerEquivalence pins the planner seam: an
// explicit static-planner round executed through RunPlans must land on
// the identical trial set the ordinary Run path produces (which now
// routes through the same seam internally), golden bytes still on the
// pinned digest.
func TestIdentityCellStaticPlannerEquivalence(t *testing.T) {
	t.Parallel()
	base := runIdentityCampaign(t)

	w := identityWorkload(t)
	var runner campaign.Runner
	golden, err := runner.GoldenFor(w)
	if err != nil {
		t.Fatalf("GoldenFor: %v", err)
	}
	if d := digestOf(golden.Output); d != identityGoldenDigest {
		t.Errorf("planner golden digest = %#016x, want %#016x", d, uint64(identityGoldenDigest))
	}
	planner, err := plan.NewStatic(golden, plan.StaticConfig{
		Class:  fault.GPR,
		Region: fault.RAny,
		Seed:   identityAppSeed,
		Trials: identityTrials,
	})
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	round, ok := planner.Next()
	if !ok {
		t.Fatal("static planner emitted no round")
	}
	res, err := runner.RunPlans(context.Background(), campaign.Spec{
		Workload: w,
		Class:    fault.GPR,
		Region:   fault.RAny,
		Seed:     identityAppSeed,
		Workers:  2,
	}, round.Plans, round.Lo)
	if err != nil {
		t.Fatalf("RunPlans: %v", err)
	}
	faulttest.RequireIdentical(t, "static planner round vs baseline", res.Fault, base.Fault)
}
