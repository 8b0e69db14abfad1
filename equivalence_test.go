// Campaign-level bit-exactness guards for the per-trial fast paths and
// the probe.Sink instrumentation seam: the inert tiled kernels a fault
// machine takes, the pooled trial arenas, the golden-run cache and the
// choice of sink (fault machine, Nop, Meter) must not change a single
// campaign observable — outcome counts, crash kinds, coverage
// histograms, golden bytes or any per-trial verdict — for a fixed
// seed. Each reference path is picked by the input: a sink that is not
// a *fault.Machine runs every kernel's generic instrumented loop.
package vsresil_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// genericSink hides a trial machine's concrete type behind
// probe.Sink, so every kernel runs its generic instrumented loop — the
// path a Meter takes — instead of the *fault.Machine fast paths, while
// the taps still land on the machine.
type genericSink struct{ probe.Sink }

// genericApp is app.RunEncoded(frames) with every kernel on its
// generic instrumented path.
func genericApp(app *vs.App, frames []*imgproc.Gray) fault.App {
	return func(m *fault.Machine) ([]byte, error) {
		res, err := app.Run(frames, genericSink{m})
		if err != nil {
			return nil, err
		}
		return res.Encode(), nil
	}
}

// runGuardCampaign executes a fixed-seed full-execution campaign over
// the guard workload, with the kernels on their generic instrumented
// loops when generic is set.
func runGuardCampaign(t *testing.T, class fault.Class, generic bool, workers int, golden *fault.GoldenRun) *fault.Result {
	t.Helper()
	vsApp, frames := guardApp()
	app := vsApp.RunEncoded(frames)
	if generic {
		app = genericApp(vsApp, frames)
	}
	res, err := fault.RunCampaign(context.Background(), fault.Config{
		Trials:  40,
		Class:   class,
		Region:  fault.RAny,
		Seed:    0x5EED5,
		Workers: workers,
		Golden:  golden,
	}, app)
	if err != nil {
		t.Fatalf("campaign (class=%v generic=%v workers=%d): %v", class, generic, workers, err)
	}
	return res
}

// requireIdentical compares every campaign observable of two results.
func requireIdentical(t *testing.T, label string, a, b *fault.Result) {
	t.Helper()
	if a.Counts != b.Counts {
		t.Errorf("%s: outcome counts differ: %v vs %v", label, a.Counts, b.Counts)
	}
	if !reflect.DeepEqual(a.CrashCounts, b.CrashCounts) {
		t.Errorf("%s: crash kinds differ: %v vs %v", label, a.CrashCounts, b.CrashCounts)
	}
	if !reflect.DeepEqual(a.RegHist.Counts, b.RegHist.Counts) {
		t.Errorf("%s: register histograms differ", label)
	}
	if !reflect.DeepEqual(a.BitHist.Counts, b.BitHist.Counts) {
		t.Errorf("%s: bit histograms differ", label)
	}
	if !bytes.Equal(a.GoldenOutput, b.GoldenOutput) {
		t.Errorf("%s: golden output bytes differ (%d vs %d bytes)", label, len(a.GoldenOutput), len(b.GoldenOutput))
	}
	if a.GoldenSteps != b.GoldenSteps {
		t.Errorf("%s: golden step counts differ: %d vs %d", label, a.GoldenSteps, b.GoldenSteps)
	}
	if a.TotalTaps != b.TotalTaps {
		t.Errorf("%s: tap-space sizes differ: %d vs %d", label, a.TotalTaps, b.TotalTaps)
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial counts differ: %d vs %d", label, len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.Outcome != tb.Outcome || ta.Crash != tb.Crash || ta.Landed != tb.Landed {
			t.Errorf("%s: trial %d differs: (%v,%v,landed=%v) vs (%v,%v,landed=%v)",
				label, i, ta.Outcome, ta.Crash, ta.Landed, tb.Outcome, tb.Crash, tb.Landed)
		}
	}
}

// TestCampaignFastpathEquivalence pins the trial machine's fast path
// (inert tiled warp/blend/resolve kernels, pooled arenas) to the
// generic instrumented loops at campaign granularity, for both register
// classes: the same app run through genericSink must reach the same
// golden and the same verdict on every trial.
func TestCampaignFastpathEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	t.Parallel()
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		fast := runGuardCampaign(t, class, false, 1, nil)
		ref := runGuardCampaign(t, class, true, 1, nil)
		requireIdentical(t, "machine vs generic sink, class "+class.String(), fast, ref)
	}
}

// TestCampaignWorkerEquivalence checks that trial parallelism does not
// change results: pooled buffers migrating between worker goroutines
// must stay invisible.
func TestCampaignWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence sweep is not -short")
	}
	t.Parallel()
	serial := runGuardCampaign(t, fault.GPR, false, 1, nil)
	parallel := runGuardCampaign(t, fault.GPR, false, runtime.GOMAXPROCS(0), nil)
	requireIdentical(t, "workers=1 vs GOMAXPROCS", serial, parallel)
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
		res, err := fault.RunCampaign(context.Background(), fault.Config{
			Trials:  40,
			Class:   fault.GPR,
			Region:  fault.RAny,
			Seed:    0x5EED5,
			Workers: 1,
			OnTrial: func(rec fault.TrialRecord) { recs = append(recs, rec) },
		}, app.RunEncoded(frames))
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		return recs, res
	}
	recsA, resA := stream()
	recsB, resB := stream()
	requireIdentical(t, "outcome-stream run A vs run B", resA, resB)
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
	cached := runGuardCampaign(t, fault.GPR, false, 1, golden)
	fresh := runGuardCampaign(t, fault.GPR, false, 1, nil)
	requireIdentical(t, "precomputed vs self-captured golden", cached, fresh)
}
