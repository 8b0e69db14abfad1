package main

import (
	"context"
	"fmt"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/plan"
)

// classicGPR runs fixed-budget GPR campaigns back to back through
// Runner.Run until the measured time is up. Each segment is a fresh
// campaign on its own derived seed with nproc trial workers; reporting
// the fast segments (fastRate) keeps host bursts out of the rate.
// Planner rounds, journals and HTTP are bypassed: the pipeline suffix
// kernels and the bucket scheduler's cutoffs do nearly all the work.
func classicGPR(ctx context.Context, b *bench) error {
	fx, _, stop, err := setUp(b, fixtureOnly)
	if err != nil {
		return err
	}
	defer stop()

	var (
		tps, walls []float64
		first      *campaign.Result
		ex         execTotals
	)
	err = b.measure(fx, func() error {
		start := time.Now()
		for i := uint64(0); i == 0 || time.Since(start) < b.cfg.measure; i++ {
			sp := b.tr.open(fmt.Sprintf("classic/%d", i), 0, "campaign.run")
			b.pipe.setScope(sp.s.Trace, sp.id())
			busy := b.pipe.busy()
			b.attempted++
			res, err := b.runner.Run(ctx, b.campaignSpec(fx, fx.work, b.cfg.size.segmentTrials, i))
			sp.end()
			if err != nil {
				b.failed++
				return fmt.Errorf("classic segment %d: %w", i, err)
			}
			if first == nil {
				first = res
			}
			tps = append(tps, float64(res.Executed)/res.Elapsed.Seconds())
			walls = append(walls, res.Elapsed.Seconds())
			ex.workerTime += res.Elapsed * time.Duration(b.nproc)
			ex.busy += b.pipe.busy() - busy
			ex.executed += res.Executed
			ex.buckets += res.Fault.Sched.Buckets
			ex.batched += res.Fault.Sched.Batched
			// Run opens a fresh executor session per campaign: every
			// bucket preparation is a miss.
			ex.prepMisses += uint64(res.Fault.Sched.Buckets)
			if err := b.spareSetUp(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.e2e["trials_per_s"] = quantile(tps, fastRate)
	b.e2e["campaign_s"] = quantile(walls, fastTime)

	// Regenerate segment 0's plans through the static planner (the
	// round Runner.Run executes) to check a sample unstaged.
	spec := b.campaignSpec(fx, fx.work, b.cfg.size.segmentTrials, 0)
	static, err := plan.NewStatic(fx.golden, plan.StaticConfig{
		Class: spec.Class, Region: spec.Region, Seed: spec.Seed, Trials: spec.Trials,
	})
	if err != nil {
		return err
	}
	recs := records(first)
	rp, err := replayPlanner(static, recs)
	if err != nil {
		b.mismatch("classic: %v", err)
		return nil
	}
	b.checkSample(ctx, "classic", fx.plain.App, fx.golden, rp.plans, recs, b.cfg.seed)

	if !b.cfg.trace {
		return nil
	}
	b.setPipeLayer()
	b.setExecLayer(ex)
	b.setOutcomes(first.Fault.Counts)
	var pt planTotals
	pt.add(rp)
	b.setPlanLayer(pt)
	b.layer["campaign.round_p50_ms"] = quantile(walls, 0.5) * 1e3
	// The same plan set through one RunPlans window: on static plans
	// the driver gap should read 1.
	replayTPS := b.replayRun(ctx, "classic", fx.plain, fx.golden, rp.plans, recs)
	b.layer["campaign.replay_trials_per_s"] = replayTPS
	b.layer["campaign.driver_gap_ratio"] = replayTPS / tps[0]
	return b.setTraceOverhead(ctx, fx)
}
