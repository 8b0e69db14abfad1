package main

import (
	"context"
	"fmt"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/plan"
)

// adaptiveGPR runs confidence-driven GPR campaigns (one round-shard,
// nproc trial workers) back to back through Runner.RunAdaptive until
// the measured time is up. Same executor as classic-gpr, but many small
// plan windows, session reuse across them, and a trial mix spread evenly
// over the strata, so more trials land in early, expensive regions.
// Journals and HTTP are bypassed.
func adaptiveGPR(ctx context.Context, b *bench) error {
	fx, _, stop, err := setUp(b, fixtureOnly)
	if err != nil {
		return err
	}
	defer stop()

	var (
		tps, converge, roundMS []float64
		first                  *campaign.AdaptiveResult
		ex                     execTotals
	)
	err = b.measure(fx, func() error {
		start := time.Now()
		for i := uint64(0); i == 0 || time.Since(start) < b.cfg.measure; i++ {
			sp := b.tr.open(fmt.Sprintf("adaptive/%d", i), 0, "campaign.adaptive")
			b.pipe.setScope(sp.s.Trace, sp.id())
			busy := b.pipe.busy()
			last := time.Now()
			spec := b.campaignSpec(fx, fx.work, 0, i)
			spec.Adaptive = &campaign.AdaptiveSpec{
				Precision:  b.cfg.size.precision,
				Confidence: b.cfg.size.confidence,
				OnRound: func(campaign.RoundStatus) {
					now := time.Now()
					roundMS = append(roundMS, float64(now.Sub(last))/1e6)
					last = now
				},
			}
			b.attempted++
			res, err := b.runner.RunAdaptive(ctx, spec, 1)
			sp.end()
			if err != nil {
				b.failed++
				return fmt.Errorf("adaptive campaign %d: %w", i, err)
			}
			if first == nil {
				first = res
			}
			tps = append(tps, float64(res.Executed)/res.Elapsed.Seconds())
			converge = append(converge, res.Elapsed.Seconds())
			ex.workerTime += res.Elapsed * time.Duration(b.nproc)
			ex.busy += b.pipe.busy() - busy
			ex.executed += res.Executed
			// Every round's bucket lookup is one scheduled bucket.
			ex.buckets += int(res.Session.BucketPrepHits + res.Session.BucketPrepMisses)
			ex.prepHits += res.Session.BucketPrepHits
			ex.prepMisses += res.Session.BucketPrepMisses
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
	b.e2e["campaign_s"] = quantile(converge, fastTime)

	// The first campaign's outcomes, fed back through a fresh planner,
	// must regenerate its plan set, and that set run as one static
	// window must reproduce its records exactly.
	planner, err := plan.NewAdaptive(fx.golden, b.adaptiveConfig(first.Spec.Seed, b.cfg.size.precision))
	if err != nil {
		return err
	}
	rp, err := replayPlanner(planner, first.Records)
	if err != nil {
		b.mismatch("adaptive: %v", err)
		return nil
	}
	replayTPS := b.replayRun(ctx, "adaptive", fx.plain, fx.golden, rp.plans, first.Records)
	b.checkSample(ctx, "adaptive", fx.plain.App, fx.golden, rp.plans, first.Records, b.cfg.seed)

	if !b.cfg.trace {
		return nil
	}
	b.setPipeLayer()
	if b.pipe != nil {
		ex.batched = int(b.pipe.resumes.Load())
	}
	b.setExecLayer(ex)
	b.setOutcomes(first.Counts)
	var pt planTotals
	pt.add(rp)
	b.setPlanLayer(pt)
	b.layer["campaign.round_p50_ms"] = quantile(roundMS, 0.5)
	b.layer["campaign.replay_trials_per_s"] = replayTPS
	b.layer["campaign.driver_gap_ratio"] = replayTPS / tps[0]
	return b.setTraceOverhead(ctx, fx)
}
