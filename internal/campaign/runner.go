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

// Run executes one fixed-budget campaign: RunSharded with k = 1. If
// ctx is canceled mid-campaign, Run returns the partial Result
// together with a non-nil error wrapping ctx's error, exactly like
// fault.RunCampaign — callers wanting partial data on interruption
// must check the Result even when err != nil.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	return r.RunSharded(ctx, spec, 1)
}

// RunSharded executes a fixed-budget campaign as one plan.Static round
// split into k concurrent sub-windows on one session pool (capped by
// spec.Workers, shared by the sub-windows) and merges them. The merged
// Result is bit-identical to the unsharded run for every k; k = 1
// returns the single window as is. Spec.Adaptive is ignored — adaptive
// campaigns go through RunAdaptive. On cancellation the error is
// non-nil and, for k > 1, the Result is a best-effort partial
// aggregate — sufficient for reporting, but not bit-identical to
// anything; callers resume from the OnTrial checkpoint stream.
func (r *Runner) RunSharded(ctx context.Context, spec Spec, k int) (*Result, error) {
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
	parts, err := runRounds(ctx, sess, spec, planner, k, nil)
	var res *Result
	switch {
	case len(parts) == 1:
		res = parts[0]
	case err != nil:
		res = partialMerge(spec, parts)
	default:
		res, err = Merge(parts...)
	}
	if res == nil {
		return nil, err
	}
	res.Spec = spec
	res.Elapsed = time.Since(start)
	return res, err
}
