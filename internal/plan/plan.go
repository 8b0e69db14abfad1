// Package plan is the trial-allocation seam of the campaign engine:
// it decides WHICH injections run, while the fault executor decides
// HOW each one runs. A Planner emits deterministic, seeded rounds of
// fault plans; the campaign Runner (and the fabric coordinator)
// execute each round through the ordinary trial executor and feed the
// observed outcomes back. Three planners cover the repo's designs:
//
//   - Static emits the classic fixed-budget campaign as one round:
//     the seeded uniform stream of fault.GeneratePlans — same seed,
//     same plans, same order.
//   - Stratified reproduces the fixed per-stratum Relyzer-style draw
//     that used to live in fault.RunStratifiedCampaign's private loop.
//   - Adaptive reallocates every round to the strata whose outcome-
//     rate confidence intervals are still widest, and stops as soon as
//     every rate is pinned to a target half-width — the
//     sequential-statistics answer to the paper's fixed 48k budget.
//
// Planners are deterministic functions of (golden geometry, seed,
// config, observed outcomes). Outcomes themselves are deterministic in
// the plan, so the full trial set is reproducible across worker
// counts, round decompositions and journal resume — allocation
// decisions made from merged counts on a cluster coordinator are the
// same decisions a single-node run would make.
package plan

import "vsresil/internal/fault"

// Round is one planner-emitted batch of work. Plans occupy the
// contiguous plan-index window [Lo, Lo+len(Plans)); fault.TrialRecord
// indices are these plan indices, so journaling and resume address
// round trials exactly like static-window trials.
type Round struct {
	// Index is the 0-based round number.
	Index int
	// Lo is the plan index of Plans[0].
	Lo int
	// Plans are the injections to execute, in plan-index order.
	Plans []fault.Plan
	// Strata, when non-nil, maps each plan to the planner's stratum
	// index (see Stratified.Strata / Adaptive.Strata); nil for
	// planners without strata.
	Strata []int
}

// Planner emits rounds until allocation is complete. The driver
// alternates strictly: Next, execute, Observe, Next, ... — a planner
// may panic if Observe is skipped. Next returns ok=false when the
// campaign is complete (either converged or out of budget).
type Planner interface {
	Next() (r Round, ok bool)
	Observe(r Round, outcomes []fault.Outcome)
}

// StratumStatus is a read-only snapshot of one stratum's running
// estimate — what the service exports as per-stratum metrics and the
// CLIs print.
type StratumStatus struct {
	Region     fault.Region
	Bits       fault.BitGroup
	Population uint64
	// Trials is the number of observed injections in the stratum.
	Trials int
	// Counts are the observed outcome counts.
	Counts [fault.NumOutcomes]int
	// HalfWidth is the widest Wilson half-width across the four
	// outcome rates at the planner's confidence (1 when Trials == 0).
	HalfWidth float64
	// Done reports whether the stratum has reached the target
	// half-width (always false for non-adaptive planners).
	Done bool
}
