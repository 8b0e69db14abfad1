// Benchmarks regenerating the paper's evaluation, one per figure.
// These run each experiment harness at a reduced scale so `go test
// -bench` finishes in minutes; cmd/experiments exposes the same
// harnesses with larger scales.
package vsresil_test

import (
	"context"
	"testing"

	"vsresil/internal/campaign"
	"vsresil/internal/energy"
	"vsresil/internal/experiments"
	"vsresil/internal/fault"
	"vsresil/internal/probe"
	"vsresil/internal/stitch"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// benchOptions is the shared reduced scale for figure benchmarks.
func benchOptions() experiments.Options {
	p := virat.TestScale()
	p.Frames = 12
	return experiments.Options{Preset: p, Trials: 100, QualityTrials: 120, Seed: 1}
}

// BenchmarkFig5PerformanceEnergy regenerates the Fig 5 normalized
// IPC/time/energy comparison.
func BenchmarkFig5PerformanceEnergy(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Panoramas regenerates the Fig 6 output panoramas.
func BenchmarkFig6Panoramas(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Profile regenerates the Fig 8 execution profile.
func BenchmarkFig8Profile(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Coverage regenerates the Fig 9 coverage study (outcome
// rates vs injections, register histogram).
func BenchmarkFig9Coverage(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ResiliencyProfile regenerates the Fig 10 GPR/FPR
// resiliency profile of the baseline VS.
func BenchmarkFig10ResiliencyProfile(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11aApproxResiliency regenerates the Fig 11a per-variant
// resiliency comparison.
func BenchmarkFig11aApproxResiliency(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11a(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11bHotFunction regenerates the Fig 11b WP-vs-VS
// hot-function case study.
func BenchmarkFig11bHotFunction(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11b(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12SDCQuality regenerates the Fig 12 ED distributions.
func BenchmarkFig12SDCQuality(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13OutputComparison regenerates the Fig 13 VS-vs-VS_SM
// comparison.
func BenchmarkFig13OutputComparison(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBaseline measures one fault-free end-to-end run of
// the precise algorithm (the unit of work every campaign repeats) on
// the devirtualized probe.Nop fast path.
func BenchmarkPipelineBaseline(b *testing.B) {
	p := virat.TestScale()
	frames := virat.Input1(p).Frames()
	app := vs.New(vs.DefaultConfig(vs.AlgVS), len(frames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Run(frames, probe.Nop{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineMetered measures the same run under the observing
// Meter sink — the cost of live per-stage telemetry, between the free
// Nop path and the full fault machine.
func BenchmarkPipelineMetered(b *testing.B) {
	p := virat.TestScale()
	frames := virat.Input1(p).Frames()
	app := vs.New(vs.DefaultConfig(vs.AlgVS), len(frames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Run(frames, probe.NewMeter()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineInstrumented measures the same run under full fault
// instrumentation — the overhead of the tap layer.
func BenchmarkPipelineInstrumented(b *testing.B) {
	p := virat.TestScale()
	frames := virat.Input1(p).Frames()
	app := vs.New(vs.DefaultConfig(vs.AlgVS), len(frames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Run(frames, fault.New()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignThroughput measures fault-injection trials per
// second on the smallest meaningful workload — the capacity-planning
// number for sizing vsd campaign jobs (live, it is the rate of
// vsd_trials_total on /metrics). It runs through Runner.Run, the
// exact code every production fixed-budget campaign takes.
func BenchmarkCampaignThroughput(b *testing.B) {
	app, frames := guardApp()
	workload := campaign.NewStagedWorkload("bench", "", app.RunEncoded(frames), app.Staged(frames))
	const trialsPerCampaign = 20
	// The golden run is workload state, not campaign work: capture it
	// once up front (with stage checkpoints, so trials skip their
	// fault-free prefix), as the service and experiment harnesses do.
	golden, err := fault.CaptureGoldenStaged(workload.Staged)
	if err != nil {
		b.Fatal(err)
	}
	var runner campaign.Runner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(context.Background(), campaign.Spec{
			Workload: workload, Class: fault.GPR, Region: fault.RAny,
			Trials: trialsPerCampaign, Seed: uint64(i),
			Golden: golden,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Fault.Completed != trialsPerCampaign {
			b.Fatalf("campaign completed %d/%d trials", res.Fault.Completed, trialsPerCampaign)
		}
	}
	b.StopTimer()
	trials := float64(b.N) * trialsPerCampaign
	b.ReportMetric(trials/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkAdaptiveCampaign measures the confidence-driven planner
// end to end: golden capture amortized outside the timer, each
// iteration runs a full adaptive campaign at a loose target. Advisory
// only — the interesting number is trials/s alongside the savings the
// planner reports elsewhere.
func BenchmarkAdaptiveCampaign(b *testing.B) {
	app, frames := guardApp()
	workload := campaign.NewStagedWorkload("bench-adaptive", "", app.RunEncoded(frames), app.Staged(frames))
	golden, err := fault.CaptureGoldenStaged(workload.Staged)
	if err != nil {
		b.Fatal(err)
	}
	var runner campaign.Runner
	var trials int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.RunAdaptive(context.Background(), campaign.Spec{
			Workload: workload, Class: fault.GPR, Region: fault.RAny,
			Seed: uint64(i), Golden: golden,
			Adaptive: &campaign.AdaptiveSpec{Precision: 0.2, Confidence: 0.8},
		}, 1)
		if err != nil {
			b.Fatal(err)
		}
		trials += res.Executed
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
	}
}

// BenchmarkComposite measures the compositing stage alone — the
// pipeline's hottest kernel — on the fault-free Nop path, whose warp,
// blend and resolve kernels run in GOMAXPROCS-bounded row bands. The
// align state is built once outside the timer; each iteration renders
// the panoramas from scratch. Advisory only (see Makefile).
func BenchmarkComposite(b *testing.B) {
	p := virat.BenchScale()
	p.Frames = 12
	frames := virat.Input2(p).Frames()
	st := stitch.New(stitch.DefaultConfig())
	feats := make([]stitch.FrameFeatures, len(frames))
	for i, f := range frames {
		feats[i] = st.DetectFrame(f, probe.Nop{})
	}
	a := st.BeginAlign(frames, probe.Nop{})
	for a.Next < len(frames) {
		st.AlignStep(feats, &a, probe.Nop{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Composite(frames, &a, probe.Nop{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBucketRestore measures what checkpoint-bucket batching buys
// on the campaign engine itself: the same 20-trial campaign executed
// against the checkpointed golden (one checkpoint restore per bucket,
// plus the convergence cutoff it enables) versus a golden with no
// checkpoints, which runs every trial in full. Advisory only — the
// headline gate stays BenchmarkCampaignThroughput.
func BenchmarkBucketRestore(b *testing.B) {
	app, frames := guardApp()
	workload := campaign.NewStagedWorkload("bench", "", app.RunEncoded(frames), app.Staged(frames))
	const trialsPerCampaign = 20
	staged, err := fault.CaptureGoldenStaged(workload.Staged)
	if err != nil {
		b.Fatal(err)
	}
	full, err := fault.CaptureGolden(workload.App)
	if err != nil {
		b.Fatal(err)
	}
	var runner campaign.Runner
	for _, arm := range []struct {
		name   string
		golden *fault.GoldenRun
	}{{"batched", staged}, {"full", full}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(context.Background(), campaign.Spec{
					Workload: workload, Class: fault.GPR, Region: fault.RAny,
					Trials: trialsPerCampaign, Seed: uint64(i),
					Golden: arm.golden,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Fault.Completed != trialsPerCampaign {
					b.Fatalf("campaign completed %d/%d trials", res.Fault.Completed, trialsPerCampaign)
				}
			}
		})
	}
}

// BenchmarkAblationBlendModes compares the two canvas blend modes'
// golden-run cost (the DESIGN.md compositing choice).
func BenchmarkAblationBlendModes(b *testing.B) {
	for _, alg := range vs.Algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			p := virat.TestScale()
			p.Frames = 8
			frames := virat.Input2(p).Frames()
			app := vs.New(vs.DefaultConfig(alg), len(frames))
			m := fault.New()
			if _, err := app.Run(frames, m); err != nil {
				b.Fatal(err)
			}
			met := energy.DefaultModel().Measure(m)
			b.ReportMetric(float64(met.Instructions), "modelled-instructions")
			for i := 0; i < b.N; i++ {
				if _, err := app.Run(frames, probe.Nop{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
