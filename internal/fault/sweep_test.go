package fault_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
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
	p := virat.TestScale()
	p.Frames = 8
	frames := virat.Input2(p).Frames()
	vsApp := vs.New(vs.DefaultConfig(vs.AlgVS), len(frames))
	app, staged := vsApp.RunEncoded(frames), vsApp.Staged(frames)
	golden, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		t.Fatalf("CaptureGoldenStaged: %v", err)
	}
	const trials, seed = 100, 0x5EED5
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for r := fault.Region(0); r < fault.NumRegions; r++ {
			label := fmt.Sprintf("class=%v region=%v", class, r)
			res, err := fault.RunCampaign(context.Background(), fault.Config{
				Trials:         trials,
				Class:          class,
				Region:         r,
				Seed:           seed,
				Workers:        runtime.GOMAXPROCS(0),
				KeepSDCOutputs: true,
				Golden:         golden,
				Staged:         staged,
			}, app)
			if errors.Is(err, fault.ErrNoTaps) {
				continue // this region has no sites for this class
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Sched.Buckets == 0 {
				t.Errorf("%s: no trial ran from a checkpoint bucket", label)
			}
			plans := fault.GeneratePlans(seed, class, r, fault.WindowFor(class, 0), trials, golden.Taps(class, r))
			want := make([]fault.Trial, trials)
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
		}
	}
}
