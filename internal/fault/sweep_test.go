package fault_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// TestCampaignBatchingRegionSweep checks the production executor —
// checkpoint buckets, guarded resumes, the early mask and the window
// clip — against the cutoff-free re-execution of every plan, in every
// region with taps and for both classes: outcome, crash kind, Landed
// and retained SDC bytes must agree trial by trial. Region-scoped
// plans are where the window clip fires (RApp has a single tap, so its
// plans close at the golden run's last in-scope tap) and decode-region
// plans are where the tap-zero decode boundary turns full runs into
// bucketed, guarded resumes. A golden without checkpoints would not do
// as the reference here: its trials clip too.
func TestCampaignBatchingRegionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	t.Parallel()
	app, staged, golden := sweepFixture(t)
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for r := fault.Region(0); r < fault.NumRegions; r++ {
			checkSweep(t, app, staged, golden, class, r, 100)
		}
	}
}

// TestCompositeBoundarySweep is the region sweep aimed at the
// composite's interior boundaries: 300 plans per class in each of the
// three composite regions (the warp invoker, the bilinear remap and
// the blend), so most trials resume from a "composite[i]" checkpoint
// and many converge at a later one, each checked against the
// cutoff-free re-execution of its plan.
func TestCompositeBoundarySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	t.Parallel()
	app, staged, golden := sweepFixture(t)
	interior := 0
	for _, cp := range golden.Checkpoints {
		if strings.HasPrefix(cp.Name, "composite[") {
			interior++
		}
	}
	if interior == 0 {
		t.Fatal("the golden run recorded no interior composite boundary")
	}
	converged := 0
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for _, r := range []fault.Region{fault.RWarpInvoker, fault.RRemapBilinear, fault.RBlend} {
			converged += checkSweep(t, app, staged, golden, class, r, 300).Sched.Converged
		}
	}
	if converged == 0 {
		t.Error("no composite trial converged at a boundary")
	}
}

// sweepFixture is the sweeps' workload: the 8-frame test-scale input
// under the baseline VS app, with its checkpointed golden run.
func sweepFixture(t *testing.T) (fault.App, fault.StagedApp, *fault.GoldenRun) {
	t.Helper()
	p := virat.TestScale()
	p.Frames = 8
	frames := virat.Input2(p).Frames()
	vsApp := vs.New(vs.DefaultConfig(vs.AlgVS), len(frames))
	app, staged := vsApp.RunEncoded(frames), vsApp.Staged(frames)
	golden, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		t.Fatalf("CaptureGoldenStaged: %v", err)
	}
	return app, staged, golden
}

// checkSweep runs n plans of one class/region through a session and
// requires every trial to match the cutoff-free re-execution of its
// plan: outcome, crash kind, Landed and retained SDC bytes. It returns
// the session's result (nil when the region has no sites for the
// class).
func checkSweep(t *testing.T, app fault.App, staged fault.StagedApp, golden *fault.GoldenRun, class fault.Class, r fault.Region, n int) *fault.Result {
	t.Helper()
	const seed = 0x5EED5
	label := fmt.Sprintf("class=%v region=%v", class, r)
	taps := golden.Taps(class, r)
	if taps == 0 {
		return &fault.Result{} // this region has no sites for this class
	}
	plans := fault.GeneratePlans(seed, class, r, fault.WindowFor(class, 0), n, taps)
	sess, err := fault.NewSession(fault.SessionConfig{
		App: app, Staged: staged, Golden: golden, Workers: runtime.GOMAXPROCS(0),
		Class: class, Region: r, KeepSDCOutputs: true,
	})
	if err != nil {
		t.Fatalf("%s: NewSession: %v", label, err)
	}
	res, err := sess.Run(context.Background(), fault.Config{Plans: plans})
	sess.Close()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Sched.Buckets == 0 {
		t.Errorf("%s: no trial ran from a checkpoint bucket", label)
	}
	want := make([]fault.Trial, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range plans {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			want[i] = fault.RunTrialFull(app, golden, plans[i])
			<-sem
		}(i)
	}
	wg.Wait()
	for i, got := range res.Trials {
		w := want[i]
		if got.Plan != plans[i] {
			t.Fatalf("%s: trial %d ran plan %+v, want %+v", label, i, got.Plan, plans[i])
		}
		if got.Outcome != w.Outcome || got.Crash != w.Crash || got.Landed != w.Landed {
			t.Errorf("%s: trial %d: batched (%v,%v,landed=%v), full re-execution (%v,%v,landed=%v)",
				label, i, got.Outcome, got.Crash, got.Landed, w.Outcome, w.Crash, w.Landed)
		}
		if !bytes.Equal(got.Output, w.Output) {
			t.Errorf("%s: trial %d: SDC output bytes differ", label, i)
		}
	}
	return res
}
