package campaign

import (
	"context"
	"fmt"
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

// OpenSession resolves spec's workload golden (through the runner's
// cache, like any campaign) and opens the campaign's executor session:
// one worker pool, bucket-preparation cache and resume index, with
// spec's class, region, SDC policy, OnTrial hook and Resume records
// fixed for every window. The caller must Close it when the campaign
// is over.
func (r *Runner) OpenSession(spec Spec) (*fault.Session, error) {
	if spec.Workload.App == nil {
		return nil, fmt.Errorf("campaign: spec has no workload app")
	}
	golden, err := r.golden(&spec)
	if err != nil {
		return nil, err
	}
	return fault.NewSession(fault.SessionConfig{
		App:            spec.Workload.App,
		Staged:         spec.Workload.Staged,
		Golden:         golden,
		Workers:        spec.Workers,
		Class:          spec.Class,
		Region:         spec.Region,
		KeepSDCOutputs: spec.SDC.Keep,
		MaxSDCOutputs:  spec.SDC.Max,
		OnTrial:        spec.OnTrial,
		Resume:         spec.Resume,
	})
}

// runWindow executes plans at plan index lo on sess and wraps the
// window's fault result with the engine's accounting.
func runWindow(ctx context.Context, sess *fault.Session, spec Spec, plans []fault.Plan, lo int) (*Result, error) {
	start := time.Now()
	fres, err := sess.Run(ctx, fault.Config{Plans: plans, PlanOffset: lo})
	if fres == nil {
		return nil, err
	}
	return &Result{
		Spec:     spec,
		Fault:    fres,
		Executed: fres.Completed - fres.Resumed,
		Elapsed:  time.Since(start),
	}, err
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
