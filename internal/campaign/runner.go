package campaign

import (
	"context"
	"time"

	"vsresil/internal/fault"
)

// Runner executes campaign Specs. The zero value is usable (no golden
// caching); long-lived owners (the experiment harnesses, the vsd
// service) configure a shared GoldenCache so campaign sweeps over the
// same workload skip repeated fault-free captures.
type Runner struct {
	// Goldens caches golden runs across campaigns, keyed by
	// Workload.Key. nil (or an empty Workload.Key) captures a fresh
	// golden per run.
	Goldens *GoldenCache
	// OnGoldenLookup, if set, observes every cache lookup (for
	// metrics). Not called for uncacheable workloads or Specs that
	// supply their own Golden.
	OnGoldenLookup func(hit bool)
}

// Result is one campaign run's outcome: the fault-layer aggregates
// plus engine-level accounting.
type Result struct {
	// Spec is the campaign as executed.
	Spec Spec
	// Fault holds the outcome counts, crash split, coverage
	// histograms, rate curve and trials.
	Fault *fault.Result
	// Executed counts the trials this run actually executed —
	// Fault.Completed minus the checkpoints resumed without
	// re-execution. Throughput metrics divide by this, not Completed.
	Executed int
	// Elapsed is the wall time of the run, golden capture included.
	Elapsed time.Duration
}

// golden acquires the fault-free golden run for spec: the Spec's own,
// the cache's, or a fresh capture. Staged workloads capture with
// checkpoints so every campaign sharing the golden can skip trial
// prefixes.
func (r *Runner) golden(spec *Spec) (*fault.GoldenRun, error) {
	capture := func() (*fault.GoldenRun, error) {
		if spec.Workload.Staged != nil {
			return fault.CaptureGoldenStaged(spec.Workload.Staged)
		}
		return fault.CaptureGolden(spec.Workload.App)
	}
	if spec.Golden != nil {
		return spec.Golden, nil
	}
	if r.Goldens != nil && spec.Workload.Key != "" {
		g, hit, err := r.Goldens.Get(spec.Workload.Key, capture)
		if r.OnGoldenLookup != nil {
			r.OnGoldenLookup(hit)
		}
		return g, err
	}
	return capture()
}

// Run executes one fixed-budget campaign: plan.Static's single round of
// spec.Trials seeded plans, run as one window on the campaign's
// session. Spec.Adaptive is ignored — adaptive campaigns go through
// RunAdaptive. If ctx is canceled mid-campaign, Run returns the partial
// Result together with a non-nil error wrapping ctx's error — callers
// wanting partial data on interruption must check the Result even when
// err != nil, and resume from the OnTrial checkpoint stream.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	sess, err := r.OpenSession(spec)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	static := spec
	static.Adaptive = nil
	planner, err := static.NewPlanner(sess.Golden())
	if err != nil {
		return nil, err
	}
	parts, err := runRounds(ctx, sess, spec, planner, 1, nil)
	if len(parts) == 0 || parts[0] == nil {
		return nil, err
	}
	res := parts[0]
	res.Spec = spec
	res.Elapsed = time.Since(start)
	return res, err
}
