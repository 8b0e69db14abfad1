// Command afirun runs an AFI-style fault-injection campaign against
// one (scenario, summarizer, algorithm) workload cell and reports the
// Mask/Crash/SDC/Hang breakdown, coverage statistics and (optionally)
// the SDC quality distribution.
//
// Usage:
//
//	afirun -input 1 -alg VS -class gpr -trials 1000
//	afirun -scenario lowlight+fog -summarizer storyboard -trials 1000
//
// With -fabric the campaign runs on a vsd cluster instead of in
// process: the spec is submitted to a coordinator (vsd -coordinator),
// split into -shards leased ranges executed by joined workers, and the
// merged result — bit-identical to a local run — is printed the same
// way. -shards applies only to -fabric campaigns; an in-process
// campaign runs each planner round as one window:
//
//	afirun -fabric http://host:8080 -trials 1000 -shards 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fabric"
	"vsresil/internal/fault"
	"vsresil/internal/quality"
	"vsresil/internal/stitch"
	"vsresil/internal/summarize"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "afirun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		input      = flag.Int("input", 1, "input video: 1 or 2")
		scenario   = flag.String("scenario", "", "capture scenario: identity (default) or a +-chain of noise, lowlight, fog, blocking, jitter")
		sumName    = flag.String("summarizer", "vs", "summarizer backend: vs (panorama stitching) or storyboard (keyframe filmstrip)")
		algName    = flag.String("alg", "VS", "vs-backend algorithm: VS, VS_RFD, VS_KDS or VS_SM")
		className  = flag.String("class", "gpr", "register class: gpr or fpr")
		scale      = flag.String("scale", "test", "input scale: test, bench or paper")
		frames     = flag.Int("frames", 24, "override the preset's frame count (0 = preset default)")
		trials     = flag.Int("trials", 1000, "number of error injections")
		seed       = flag.Uint64("seed", 1, "campaign seed")
		workers    = flag.Int("workers", 0, "parallel trial workers (with -fabric: per cluster worker; 0 = GOMAXPROCS)")
		shards     = flag.Int("shards", 1, "with -fabric: split each campaign round into this many leased cluster shards")
		sdcEDs     = flag.Bool("sdc-quality", false, "classify every SDC's Egregiousness Degree")
		regionStr  = flag.String("region", "", "restrict injections to one function (e.g. remapBilinear)")
		stratified = flag.Bool("stratified", false, "use the Relyzer-style equivalence-class campaign (per-stratum sampling, population-weighted estimate)")
		adaptive   = flag.Bool("adaptive", false, "use the confidence-driven planner: allocate rounds to the widest-interval strata and stop at the precision target (replaces -trials)")
		precision  = flag.Float64("precision", 0, "adaptive target half-width for every per-stratum outcome rate (0 = 0.05)")
		confidence = flag.Float64("confidence", 0, "adaptive confidence level for the intervals (0 = 0.95)")
		fabricAddr = flag.String("fabric", "", "run on a vsd cluster: coordinator base URL, e.g. http://host:8080")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	mode := campaignMode{
		Stratified: *stratified,
		Adaptive:   *adaptive,
		Fabric:     *fabricAddr,
		Summarizer: *sumName,
		Precision:  *precision,
		Confidence: *confidence,
		TrialsSet:  set["trials"],
		ShardsSet:  set["shards"],
	}
	if err := mode.validate(); err != nil {
		return err
	}

	if *fabricAddr != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runFabric(ctx, *fabricAddr, fabric.CampaignSpec{
			Algorithm:  *algName,
			Scenario:   *scenario,
			Summarizer: *sumName,
			Class:      *className,
			Region:     *regionStr,
			Input:      *input,
			Scale:      *scale,
			Frames:     *frames,
			Trials:     *trials,
			Seed:       *seed,
			Workers:    *workers,
			KeepSDC:    *sdcEDs,
			Adaptive:   *adaptive,
			Precision:  *precision,
			Confidence: *confidence,
		}, *shards)
	}

	alg, err := vs.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	class, err := fault.ParseClass(*className)
	if err != nil {
		return err
	}
	region, err := fault.ParseRegion(*regionStr)
	if err != nil {
		return err
	}
	preset, err := virat.ParsePreset(*scale, *frames)
	if err != nil {
		return err
	}
	sc, err := virat.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	seq, err := virat.GenerateInput(*input, preset, sc)
	if err != nil {
		return err
	}
	cfg := vs.DefaultConfig(alg)
	cfg.Seed = *seed
	sum, err := summarize.Parse(*sumName, cfg)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the campaign context: in-flight trials
	// finish, the partial outcome table is printed, and the process
	// exits cleanly instead of being killed mid-trial.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *stratified {
		return runStratified(ctx, campaign.Summarize(sum, seq), class, *trials, *seed, *workers, alg, seq)
	}
	if *adaptive {
		return runAdaptive(ctx, campaign.Summarize(sum, seq), class, region,
			*seed, *workers, *precision, *confidence, alg, seq)
	}

	fmt.Printf("campaign: %s [%s] on %s, %v faults, %d trials, region=%s\n",
		sum.Name(), alg, seq.Name, class, *trials, region)
	var runner campaign.Runner
	crun, err := runner.Run(ctx, campaign.Spec{
		Workload: campaign.Summarize(sum, seq),
		Class:    class,
		Region:   region,
		Trials:   *trials,
		Seed:     *seed,
		Workers:  *workers,
		SDC:      campaign.SDCPolicy{Keep: *sdcEDs},
	})
	interrupted := err != nil && errors.Is(err, context.Canceled) && crun != nil
	if err != nil && !interrupted {
		return err
	}
	res := crun.Fault
	if interrupted {
		fmt.Printf("interrupted: %d/%d trials completed, reporting partial results\n", res.Completed, *trials)
	}

	fmt.Printf("golden run: %d taps in site space, %d total steps\n", res.TotalTaps, res.GoldenSteps)
	fmt.Printf("%-8s %8s %8s\n", "outcome", "count", "rate")
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		fmt.Printf("%-8s %8d %8.3f\n", o, res.Counts[o], res.Rate(o))
	}
	if crashes := res.Counts[fault.OutcomeCrash]; crashes > 0 {
		fmt.Printf("crash split: %.0f%% segv-like, %.0f%% abort-like (paper: 92%%/8%%)\n",
			100*float64(res.CrashCounts[fault.CrashSegv])/float64(crashes),
			100*float64(res.CrashCounts[fault.CrashAbort])/float64(crashes))
	}
	fmt.Printf("register coverage chi2 vs uniform: %.1f (expect ~%d)\n",
		res.RegHist.ChiSquareUniform(), fault.NumRegisters-1)
	fmt.Printf("rate-curve knee: ~%d injections\n", res.Curve.Knee(0.02))
	if s := res.Sched; s.Batched > 0 {
		fmt.Printf("bucket scheduler: %d trials in %d checkpoint buckets (%d restores saved, %d early-masked, %d converged)\n",
			s.Batched, s.Buckets, s.Batched-s.Buckets, s.EarlyMasks, s.Converged)
	}
	fmt.Printf("campaign wall time: %s (%.1f trials/s)\n",
		crun.Elapsed.Round(time.Millisecond), float64(crun.Executed)/crun.Elapsed.Seconds())

	if *sdcEDs {
		golden, gox, goy, err := stitch.DecodePrimary(res.GoldenOutput)
		if err != nil {
			return fmt.Errorf("decode golden: %w", err)
		}
		var eds []quality.ED
		qcfg := quality.DefaultConfig()
		for _, enc := range res.SDCOutputs() {
			faulty, fox, foy, err := stitch.DecodePrimary(enc)
			if err != nil {
				faulty = nil
			}
			eds = append(eds, quality.ClassifyPlaced(golden, faulty, gox, goy, fox, foy, qcfg))
		}
		curve := quality.NewCurve(eds, 40)
		fmt.Printf("SDC quality: %d SDCs, %d egregious (norm > 100%%)\n", curve.Total, curve.Egregious)
		for _, k := range []int{0, 2, 5, 10, 20, 40} {
			fmt.Printf("  ED <= %-3d: %5.1f%% of SDCs\n", k, 100*curve.FractionAtOrBelow(k))
		}
	}
	return nil
}

// runFabric submits the campaign to a cluster coordinator, polls its
// progress, and prints the merged result. The cluster result is proven
// bit-identical to a local run, so the numbers printed here are the
// numbers an in-process campaign with the same spec produces.
func runFabric(ctx context.Context, base string, spec fabric.CampaignSpec, shards int) error {
	cl := &fabric.Client{Base: base}
	id, err := cl.Submit(ctx, spec, shards)
	if err != nil {
		return err
	}
	if spec.Adaptive {
		fmt.Printf("fabric adaptive campaign %s: %s on input %d (%s), %s faults, %d round-shards via %s\n",
			id, spec.Algorithm, max(spec.Input, 1), spec.Scale, spec.Class, shards, base)
	} else {
		fmt.Printf("fabric campaign %s: %s on input %d (%s), %s faults, %d trials, %d shards via %s\n",
			id, spec.Algorithm, max(spec.Input, 1), spec.Scale, spec.Class, spec.Trials, shards, base)
	}

	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	lastDone := -1
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			return err
		}
		if st.TrialsDone != lastDone {
			fmt.Printf("  shards %d/%d, trials %d/%d\n",
				st.ShardsDone, st.ShardsTotal, st.TrialsDone, st.TrialsTotal)
			lastDone = st.TrialsDone
		}
		switch st.State {
		case "done":
			if spec.Adaptive {
				return printFabricAdaptiveResult(ctx, cl, id)
			}
			return printFabricResult(ctx, cl, id)
		case "failed":
			return fmt.Errorf("cluster campaign failed: %s", st.Error)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func printFabricResult(ctx context.Context, cl *fabric.Client, id string) error {
	res, err := cl.Result(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("golden run: %d taps in site space, %d total steps\n", res.TotalTaps, res.GoldenSteps)
	fmt.Printf("%-8s %8s %8s\n", "outcome", "count", "rate")
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		fmt.Printf("%-8s %8d %8.3f\n", o, res.Counts[o.String()], res.Rates[o.String()])
	}
	if crashes := res.Counts[fault.OutcomeCrash.String()]; crashes > 0 && len(res.CrashSplit) > 0 {
		fmt.Printf("crash split: %.0f%% segv-like, %.0f%% abort-like (paper: 92%%/8%%)\n",
			100*float64(res.CrashSplit[fault.CrashSegv.String()])/float64(crashes),
			100*float64(res.CrashSplit[fault.CrashAbort.String()])/float64(crashes))
	}
	fmt.Printf("register coverage chi2 vs uniform: %.1f (expect ~%d)\n",
		res.RegChi2, fault.NumRegisters-1)
	fmt.Printf("rate-curve knee: ~%d injections\n", res.CurveKnee)
	if res.SDCKept > 0 {
		fmt.Printf("SDC outputs retained on coordinator: %d\n", res.SDCKept)
	}
	fmt.Printf("cluster wall time: %s\n", time.Duration(res.ElapsedSec*float64(time.Second)).Round(time.Millisecond))
	return nil
}

// runStratified executes the Relyzer-style equivalence-class campaign
// through the planner seam and prints the per-stratum table plus the
// weighted estimate.
func runStratified(ctx context.Context, wl campaign.Workload,
	class fault.Class, trials int, seed uint64, workers int,
	alg vs.Algorithm, seq *virat.Sequence) error {
	perStratum := trials / 24 // comparable total effort to -trials
	if perStratum < 5 {
		perStratum = 5
	}
	fmt.Printf("stratified campaign: %s on %s, %v faults, %d trials/stratum\n",
		alg, seq.Name, class, perStratum)
	start := time.Now()
	var runner campaign.Runner
	res, err := runner.RunStratified(ctx, wl, fault.StratifiedConfig{
		TrialsPerStratum: perStratum,
		Class:            class,
		Seed:             seed,
		Workers:          workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-10s %10s %8s %8s %8s %8s\n",
		"region", "bits", "population", "Mask", "Crash", "SDC", "Hang")
	for i := range res.Strata {
		s := &res.Strata[i]
		r := s.Rates()
		fmt.Printf("%-24s %-10s %10d %8.3f %8.3f %8.3f %8.3f\n",
			s.Region, s.Bits, s.Population,
			r[fault.OutcomeMask], r[fault.OutcomeCrash], r[fault.OutcomeSDC], r[fault.OutcomeHang])
	}
	w := res.WeightedRates()
	fmt.Printf("weighted estimate (%d trials): Mask %.3f Crash %.3f SDC %.3f Hang %.3f\n",
		res.Trials,
		w[fault.OutcomeMask], w[fault.OutcomeCrash], w[fault.OutcomeSDC], w[fault.OutcomeHang])
	fmt.Printf("campaign wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runAdaptive executes the confidence-driven campaign: rounds flow to
// the strata with the widest outcome-rate intervals until every rate
// is within the precision target, and the savings against the
// fixed-budget design are reported alongside the weighted estimate.
func runAdaptive(ctx context.Context, w campaign.Workload,
	class fault.Class, region fault.Region, seed uint64,
	workers int, precision, confidence float64,
	alg vs.Algorithm, seq *virat.Sequence) error {
	spec := campaign.Spec{
		Workload: w,
		Class:    class,
		Region:   region,
		Seed:     seed,
		Workers:  workers,
		Adaptive: &campaign.AdaptiveSpec{Precision: precision, Confidence: confidence},
	}
	fmt.Printf("adaptive campaign: %s on %s, %v faults, region=%s\n",
		alg, seq.Name, class, region)
	var runner campaign.Runner
	res, err := runner.RunAdaptive(ctx, spec, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-10s %10s %8s %11s %5s\n",
		"region", "bits", "population", "trials", "half-width", "done")
	for _, s := range res.Strata {
		fmt.Printf("%-24s %-10s %10d %8d %11.4f %5v\n",
			s.Region, s.Bits, s.Population, s.Trials, s.HalfWidth, s.Done)
	}
	wr := res.Stratified.WeightedRates()
	fmt.Printf("weighted estimate (%d trials, %d rounds): Mask %.3f Crash %.3f SDC %.3f Hang %.3f\n",
		res.Trials, res.Rounds,
		wr[fault.OutcomeMask], wr[fault.OutcomeCrash], wr[fault.OutcomeSDC], wr[fault.OutcomeHang])
	if res.Converged {
		fmt.Printf("converged in %d trials; fixed-budget equivalent %d (%.1fx savings)\n",
			res.Trials, res.FixedBudget, float64(res.FixedBudget)/float64(res.Trials))
	} else {
		fmt.Printf("budget exhausted at %d trials (fixed-budget equivalent %d)\n",
			res.Trials, res.FixedBudget)
	}
	if st := res.Session; st.RoundsServed > 0 {
		if preps := st.BucketPrepHits + st.BucketPrepMisses; preps > 0 {
			fmt.Printf("executor session: %d rounds, bucket-prep cache %d/%d hits (%.0f%%), %d worker slots reused\n",
				st.RoundsServed, st.BucketPrepHits, preps,
				100*float64(st.BucketPrepHits)/float64(preps), st.WorkersReused)
		} else {
			fmt.Printf("executor session: %d rounds, %d worker slots reused\n",
				st.RoundsServed, st.WorkersReused)
		}
	}
	fmt.Printf("campaign wall time: %s\n", res.Elapsed.Round(time.Millisecond))
	return nil
}

// printFabricAdaptiveResult renders a finished adaptive cluster
// campaign the same way the local runAdaptive does.
func printFabricAdaptiveResult(ctx context.Context, cl *fabric.Client, id string) error {
	res, err := cl.AdaptiveResult(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-10s %10s %8s %11s %5s\n",
		"region", "bits", "population", "trials", "half-width", "done")
	for _, s := range res.Strata {
		fmt.Printf("%-24s %-10s %10d %8d %11.4f %5v\n",
			s.Region, s.Bits, s.Population, s.Trials, s.HalfWidth, s.Done)
	}
	fmt.Printf("weighted estimate (%d trials, %d rounds): Mask %.3f Crash %.3f SDC %.3f Hang %.3f\n",
		res.Trials, res.Rounds,
		res.Rates[fault.OutcomeMask.String()], res.Rates[fault.OutcomeCrash.String()],
		res.Rates[fault.OutcomeSDC.String()], res.Rates[fault.OutcomeHang.String()])
	if res.Converged {
		fmt.Printf("converged in %d trials; fixed-budget equivalent %d (%.1fx savings)\n",
			res.Trials, res.FixedBudget, float64(res.FixedBudget)/float64(res.Trials))
	} else {
		fmt.Printf("budget exhausted at %d trials (fixed-budget equivalent %d)\n",
			res.Trials, res.FixedBudget)
	}
	fmt.Printf("cluster wall time: %s\n", time.Duration(res.ElapsedSec*float64(time.Second)).Round(time.Millisecond))
	return nil
}
