// Campaign-level bit-exactness guards for the probe.Sink
// instrumentation seam and the campaign plumbing around the executor:
// the choice of sink (fault machine, Nop, Meter) must not change the
// output, and the outcome stream and a precomputed golden run must not
// change a single campaign observable for a fixed seed. Per-trial
// execution paths (inert kernels, buckets, resumes, cutoffs) are
// checked against the cutoff-free reference by internal/fault's
// TestReferenceMatrix.
package vsresil_test

import (
	"bytes"
	"context"
	"testing"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// runGuardCampaign executes a fixed-seed full-execution campaign over
// the guard workload.
func runGuardCampaign(t *testing.T, golden *fault.GoldenRun) *fault.Result {
	t.Helper()
	vsApp, frames := guardApp()
	var runner campaign.Runner
	res, err := runner.Run(context.Background(), campaign.Spec{
		Workload: campaign.NewWorkload("guard", "", vsApp.RunEncoded(frames)),
		Class:    fault.GPR,
		Region:   fault.RAny,
		Trials:   40,
		Seed:     0x5EED5,
		Workers:  1,
		Golden:   golden,
	})
	if err != nil {
		t.Fatalf("guard campaign: %v", err)
	}
	return res.Fault
}

// guardApp builds the fixed workload the sink-equivalence tests run.
func guardApp() (*vs.App, []*imgproc.Gray) {
	p := virat.TestScale()
	p.Frames = 8
	frames := virat.Input2(p).Frames()
	return vs.New(vs.DefaultConfig(vs.AlgVS), len(frames)), frames
}

// encodedRun executes one pipeline run through the given sink and
// returns the serialized panorama set.
func encodedRun(t *testing.T, s probe.Sink) []byte {
	t.Helper()
	app, frames := guardApp()
	res, err := app.Run(frames, s)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Encode()
}

// TestSinkOutputEquivalence pins the tap-ordering invariant's output
// half: the devirtualized Nop path, the observing Meter and a plan-free
// fault machine must all produce byte-identical panorama sets. The Nop
// comparison in particular covers the hand-inlined clean warp kernels
// against the instrumented reference loops.
func TestSinkOutputEquivalence(t *testing.T) {
	t.Parallel()
	machine := encodedRun(t, fault.New())
	nop := encodedRun(t, probe.Nop{})
	meter := encodedRun(t, probe.NewMeter())
	nilSink := encodedRun(t, nil)
	if !bytes.Equal(machine, nop) {
		t.Errorf("plan-free machine vs Nop outputs differ (%d vs %d bytes)", len(machine), len(nop))
	}
	if !bytes.Equal(machine, meter) {
		t.Errorf("plan-free machine vs Meter outputs differ (%d vs %d bytes)", len(machine), len(meter))
	}
	if !bytes.Equal(nop, nilSink) {
		t.Errorf("Nop vs nil-sink outputs differ (%d vs %d bytes)", len(nop), len(nilSink))
	}
}

// TestCampaignOutcomeStreamEquivalence pins the injection half of the
// seam: two identically-seeded campaigns must deliver the identical
// ordered Mask/Crash/SDC/Hang outcome stream through OnTrial, and that
// stream must agree with the result's Trials slice. A refactor that
// perturbed tap ordering anywhere in the pipeline would shift fault
// sites and break this immediately.
func TestCampaignOutcomeStreamEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	t.Parallel()
	stream := func() ([]fault.TrialRecord, *fault.Result) {
		app, frames := guardApp()
		var recs []fault.TrialRecord
		var runner campaign.Runner
		res, err := runner.Run(context.Background(), campaign.Spec{
			Workload: campaign.NewWorkload("guard", "", app.RunEncoded(frames)),
			Class:    fault.GPR,
			Region:   fault.RAny,
			Trials:   40,
			Seed:     0x5EED5,
			Workers:  1,
			OnTrial:  func(rec fault.TrialRecord) { recs = append(recs, rec) },
		})
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		return recs, res.Fault
	}
	recsA, resA := stream()
	recsB, resB := stream()
	faulttest.RequireIdentical(t, "outcome-stream run A vs run B", resA, resB)
	if len(recsA) != len(recsB) {
		t.Fatalf("stream lengths differ: %d vs %d", len(recsA), len(recsB))
	}
	for i := range recsA {
		if recsA[i].Outcome != recsB[i].Outcome || recsA[i].Crash != recsB[i].Crash {
			t.Errorf("stream trial %d differs: (%v,%v) vs (%v,%v)",
				i, recsA[i].Outcome, recsA[i].Crash, recsB[i].Outcome, recsB[i].Crash)
		}
	}
	for _, rec := range recsA {
		tr := resA.Trials[rec.Index]
		if tr.Outcome != rec.Outcome || tr.Crash != rec.Crash {
			t.Errorf("stream trial %d disagrees with Trials slice: (%v,%v) vs (%v,%v)",
				rec.Index, rec.Outcome, rec.Crash, tr.Outcome, tr.Crash)
		}
	}
}

// TestCampaignGoldenCacheEquivalence checks that supplying a
// precomputed golden run is indistinguishable from letting the
// campaign capture its own.
func TestCampaignGoldenCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	t.Parallel()
	app, frames := guardApp()
	golden, err := fault.CaptureGolden(app.RunEncoded(frames))
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	cached := runGuardCampaign(t, golden)
	fresh := runGuardCampaign(t, nil)
	faulttest.RequireIdentical(t, "precomputed vs self-captured golden", cached, fresh)
}
