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
		Req: campaign.Request{
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
		},
		Stratified: *stratified,
		Fabric:     *fabricAddr,
		TrialsSet:  set["trials"],
		ShardsSet:  set["shards"],
	}
	if err := mode.validate(); err != nil {
		return err
	}
	req := mode.Req

	// SIGINT/SIGTERM cancel the campaign context: in-flight trials
	// finish, the partial outcome table is printed, and the process
	// exits cleanly instead of being killed mid-trial.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *fabricAddr != "" {
		return runFabric(ctx, *fabricAddr, req, *shards)
	}
	w, err := req.Workload()
	if err != nil {
		return err
	}
	spec, err := req.Spec(w)
	if err != nil {
		return err
	}
	cell := req.Cell().Canonical()
	var runner campaign.Runner
	if *stratified {
		return runStratified(ctx, &runner, cell, spec)
	}
	if req.Adaptive {
		fmt.Printf("adaptive campaign: %s on %s, %v faults, region=%s\n", cell, w.Name, spec.Class, spec.Region)
		res, err := runner.RunAdaptive(ctx, spec, 1)
		if err != nil {
			return err
		}
		printAdaptive(req.AdaptiveReport(res))
		return nil
	}

	fmt.Printf("campaign: %s on %s, %v faults, %d trials, region=%s\n", cell, w.Name, spec.Class, spec.Trials, spec.Region)
	crun, err := runner.Run(ctx, spec)
	interrupted := err != nil && errors.Is(err, context.Canceled) && crun != nil
	if err != nil && !interrupted {
		return err
	}
	rep := req.Report(crun)
	if interrupted {
		fmt.Printf("interrupted: %d/%d trials completed, reporting partial results\n", rep.Completed, rep.Trials)
	}
	printStatic(rep)

	// Local-only lines: the executor's scheduler counters and the SDC
	// outputs themselves never leave the process.
	res := crun.Fault
	if s := res.Sched; s.Batched > 0 {
		fmt.Printf("bucket scheduler: %d trials in %d checkpoint buckets (%d restores saved, %d early-masked, %d converged)\n",
			s.Batched, s.Buckets, s.Batched-s.Buckets, s.EarlyMasks, s.Converged)
	}
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
// numbers an in-process campaign with the same request produces.
func runFabric(ctx context.Context, base string, req campaign.Request, shards int) error {
	cl := &fabric.Client{Base: base}
	id, err := cl.Submit(ctx, req, shards)
	if err != nil {
		return err
	}
	budget := fmt.Sprintf("%d trials", req.Trials)
	if req.Adaptive {
		budget = "adaptive"
	}
	fmt.Printf("fabric campaign %s: %s on input %d (%s), %s faults, %s, %d shards per round via %s\n",
		id, req.Cell().Canonical(), max(req.Input, 1), req.Scale, req.Class, budget, shards, base)

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
			rep, err := cl.Result(ctx, id)
			if err != nil {
				return err
			}
			if rep.Adaptive {
				printAdaptive(rep)
			} else {
				printStatic(rep)
			}
			return nil
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

// printStatic prints a fixed-budget campaign report: the outcome table
// and the coverage statistics.
func printStatic(rep *campaign.Report) {
	fmt.Printf("golden run: %d taps in site space, %d total steps\n", rep.TotalTaps, rep.GoldenSteps)
	fmt.Printf("%-8s %8s %8s\n", "outcome", "count", "rate")
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		fmt.Printf("%-8s %8d %8.3f\n", o, rep.Counts[o.String()], rep.Rates[o.String()])
	}
	if crashes := rep.Counts[fault.OutcomeCrash.String()]; crashes > 0 {
		fmt.Printf("crash split: %.0f%% segv-like, %.0f%% abort-like (paper: 92%%/8%%)\n",
			100*float64(rep.CrashSplit[fault.CrashSegv.String()])/float64(crashes),
			100*float64(rep.CrashSplit[fault.CrashAbort.String()])/float64(crashes))
	}
	fmt.Printf("register coverage chi2 vs uniform: %.1f (expect ~%d)\n", rep.RegChi2, fault.NumRegisters-1)
	fmt.Printf("rate-curve knee: ~%d injections\n", rep.CurveKnee)
	if rep.SDCKept > 0 {
		fmt.Printf("SDC outputs retained: %d\n", rep.SDCKept)
	}
	printWall(rep)
}

// printAdaptive prints a confidence-driven campaign report: the
// per-stratum table, the weighted estimate and the savings against the
// fixed-budget design.
func printAdaptive(rep *campaign.Report) {
	fmt.Printf("%-24s %-10s %10s %8s %11s %5s\n",
		"region", "bits", "population", "trials", "half-width", "done")
	for _, s := range rep.Strata {
		fmt.Printf("%-24s %-10s %10d %8d %11.4f %5v\n",
			s.Region, s.Bits, s.Population, s.Trials, s.HalfWidth, s.Done)
	}
	fmt.Printf("weighted estimate (%d trials, %d rounds): Mask %.3f Crash %.3f SDC %.3f Hang %.3f\n",
		rep.Trials, rep.Rounds,
		rep.Rates[fault.OutcomeMask.String()], rep.Rates[fault.OutcomeCrash.String()],
		rep.Rates[fault.OutcomeSDC.String()], rep.Rates[fault.OutcomeHang.String()])
	if rep.Converged {
		fmt.Printf("converged in %d trials; fixed-budget equivalent %d (%.1fx savings)\n",
			rep.Trials, rep.FixedBudget, float64(rep.FixedBudget)/float64(rep.Trials))
	} else {
		fmt.Printf("budget exhausted at %d trials (fixed-budget equivalent %d)\n",
			rep.Trials, rep.FixedBudget)
	}
	printWall(rep)
}

// printWall prints the campaign's wall time and, when this process
// executed trials, their throughput.
func printWall(rep *campaign.Report) {
	wall := time.Duration(rep.ElapsedSec * float64(time.Second)).Round(time.Millisecond)
	if rep.TrialsPerSec > 0 {
		fmt.Printf("campaign wall time: %s (%.1f trials/s)\n", wall, rep.TrialsPerSec)
		return
	}
	fmt.Printf("campaign wall time: %s\n", wall)
}

// runStratified executes the Relyzer-style equivalence-class campaign
// through the planner seam and prints the per-stratum table plus the
// weighted estimate. It runs in process only.
func runStratified(ctx context.Context, runner *campaign.Runner, cell campaign.Cell, spec campaign.Spec) error {
	perStratum := max(spec.Trials/24, 5) // comparable total effort to -trials
	fmt.Printf("stratified campaign: %s on %s, %v faults, %d trials/stratum\n",
		cell, spec.Workload.Name, spec.Class, perStratum)
	start := time.Now()
	res, err := runner.RunStratified(ctx, spec.Workload, fault.StratifiedConfig{
		TrialsPerStratum: perStratum,
		Class:            spec.Class,
		Seed:             spec.Seed,
		Workers:          spec.Workers,
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
