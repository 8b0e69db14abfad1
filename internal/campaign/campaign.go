// Package campaign is the one engine every fault-injection campaign in
// the repo runs through. A declarative Spec names the workload, the
// fault model knobs (class, region, trials, window, seed) and the
// execution knobs (workers, SDC-output policy, checkpoint streaming);
// a Runner owns the campaign lifecycle around it — golden capture and
// caching, the trial worker pool, checkpoint/resume streaming and
// context cancellation. The study API (internal/core), every figure
// harness (internal/experiments), the vsd service and cmd/afirun all
// sit on this package instead of opening executor sessions by hand.
//
// Every campaign runs through one round loop: a plan.Planner decides
// which trials run, the campaign's one fault.Session executes each
// emitted round as a window of plans at an offset on its worker pool,
// and the observed outcomes flow back to the planner. A fixed-budget
// Spec is a one-round plan.Static, so Runner.Run executes exactly one
// window. Plans are drawn from Spec.Seed and TrialRecord indices are
// plan indices, which is what lets an interrupted campaign resume from
// journaled records and the fabric coordinator lease rounds across
// machines and rebuild the result from them.
package campaign

import (
	"fmt"

	"vsresil/internal/fault"
	"vsresil/internal/plan"
)

// Workload is the application a campaign injects into.
type Workload struct {
	// Name labels the workload in results and reports (e.g. "Input1",
	// "WP", "uploaded[12]").
	Name string
	// Key is the golden-cache identity: it must capture everything
	// that determines the fault-free run (application, configuration,
	// input). "" marks the workload uncacheable — every campaign
	// captures a fresh golden run.
	Key string
	// App is the instrumented application under test.
	App fault.App
	// Staged, when non-nil, is the stage-resumable view of the same
	// app. Campaigns then capture checkpointed goldens and skip the
	// fault-free prefix of every trial; a nil Staged runs each trial in
	// full.
	Staged fault.StagedApp
}

// NewWorkload wraps an arbitrary fault.App as a campaign workload.
// Pass key "" unless the app+input pair has a stable identity worth
// caching the golden run under. Workloads built this way run every
// trial in full; use NewStagedWorkload when the app has a resumable
// stage decomposition.
func NewWorkload(name, key string, app fault.App) Workload {
	return Workload{Name: name, Key: key, App: app}
}

// NewStagedWorkload wraps an app that also has a stage-resumable view,
// letting campaigns skip the fault-free prefix of each trial. app and
// staged must be two views of the same computation: RunFull under a
// nil snapshot hook must produce the same taps and bytes as app.
func NewStagedWorkload(name, key string, app fault.App, staged fault.StagedApp) Workload {
	return Workload{Name: name, Key: key, App: app, Staged: staged}
}

// SDCPolicy says what happens to the corrupted output bytes of SDC
// trials.
type SDCPolicy struct {
	// Keep retains SDC outputs in the result for quality analysis
	// (Fig 12, the ED study).
	Keep bool
	// Max caps how many outputs Keep retains per window (<= 0 =
	// unlimited). The Max lowest-index SDC trials keep their bytes,
	// deterministically regardless of worker count or completion order.
	Max int
}

// Spec declares one fault-injection campaign.
type Spec struct {
	// Workload is the application under test.
	Workload Workload
	// Class selects GPR or FPR injections.
	Class fault.Class
	// Region restricts injections to one function (RAny = whole app).
	Region fault.Region
	// Trials is the number of error injections in the full campaign.
	Trials int
	// Window overrides the register-liveness window (0 = class
	// default).
	Window uint64
	// Seed makes the campaign reproducible: the planner draws every
	// plan from it, which is what makes resume deterministic.
	Seed uint64
	// Workers bounds trial parallelism (0 = GOMAXPROCS). It sizes the
	// campaign's one session pool: the concurrent round sub-windows of
	// RunAdaptive share it rather than getting a pool each.
	Workers int
	// SDC is the SDC-output retention policy.
	SDC SDCPolicy
	// Golden, when non-nil, supplies a precomputed golden run,
	// bypassing both capture and the Runner's cache.
	Golden *fault.GoldenRun
	// OnTrial, if set, receives every completed trial's checkpoint
	// record. Invocations are serialized, including across the
	// concurrent round sub-windows of RunAdaptive. Record indices are
	// plan indices, valid across any decomposition of the same Spec.
	OnTrial func(rec fault.TrialRecord)
	// Resume holds checkpoint records from an interrupted run of the
	// same Spec, in any order and any decomposition. Records whose
	// plan index the campaign never reaches are ignored.
	Resume []fault.TrialRecord
	// Adaptive, when non-nil, switches the campaign from the fixed
	// Trials budget to confidence-driven allocation (Runner.RunAdaptive):
	// rounds of trials flow to the strata with the widest outcome-rate
	// intervals until every rate is within Adaptive.Precision at
	// Adaptive.Confidence. Trials is ignored; the planner's budget cap
	// is Adaptive.MaxTrials. Run ignores this field.
	Adaptive *AdaptiveSpec
}

// validate checks the Spec before any work is spent on it.
func (s *Spec) validate() error {
	if s.Workload.App == nil {
		return fmt.Errorf("campaign: spec has no workload app")
	}
	if s.Trials <= 0 {
		return fmt.Errorf("campaign: non-positive trial count %d", s.Trials)
	}
	return nil
}

// NewPlanner builds the planner that allocates the Spec's trials over
// golden's site space: plan.Adaptive when Adaptive is set, otherwise a
// one-round plan.Static over the whole Trials budget. It is the one
// Spec-to-planner translation — the local round loop and the fabric
// coordinator both plan through it, which keeps their plan spaces
// identical.
func (s *Spec) NewPlanner(golden *fault.GoldenRun) (plan.Planner, error) {
	if a := s.Adaptive; a != nil {
		p, err := plan.NewAdaptive(golden, plan.AdaptiveConfig{
			Class:      s.Class,
			Region:     s.Region,
			Seed:       s.Seed,
			Window:     s.Window,
			Precision:  a.Precision,
			Confidence: a.Confidence,
			RoundSize:  a.RoundSize,
			MaxTrials:  a.MaxTrials,
		})
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	p, err := plan.NewStatic(golden, plan.StaticConfig{
		Class:  s.Class,
		Region: s.Region,
		Seed:   s.Seed,
		Window: s.Window,
		Trials: s.Trials,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
