package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vsresil/internal/fault"
	"vsresil/internal/plan"
)

// This file is the engine side of the planner seam (internal/plan):
// planners decide which trials run, and runRounds — the one round loop
// every Runner entry point drives — executes each emitted round on the
// campaign's fault.Session: golden cache, prefix skip, bucket batching
// and checkpoint streaming included.

// AdaptiveSpec configures confidence-driven trial allocation.
type AdaptiveSpec struct {
	// Precision is the target Wilson half-width for every per-stratum
	// outcome rate (0 = 0.05).
	Precision float64
	// Confidence is the interval confidence level (0 = 0.95).
	Confidence float64
	// RoundSize is the trial budget per post-bootstrap round
	// (0 = 8 per stratum).
	RoundSize int
	// MaxTrials caps the total allocation (0 = the fixed-budget
	// equivalent — the adaptive campaign never spends more than the
	// non-adaptive design would).
	MaxTrials int
	// OnRound, if set, observes every completed round (for metrics and
	// progress display). Called after the round's outcomes are folded
	// into the planner, in round order.
	OnRound func(RoundStatus)
}

// RoundStatus is the per-round progress snapshot OnRound receives.
type RoundStatus struct {
	// Round is the 0-based index of the round that just completed.
	Round int
	// RoundTrials is the number of trials the round allocated.
	RoundTrials int
	// Trials is the cumulative allocation so far.
	Trials int
	// MaxHalfWidth is the widest per-stratum half-width after the
	// round.
	MaxHalfWidth float64
	// StrataDone / Strata count converged and total strata.
	StrataDone, Strata int
}

// AdaptiveResult aggregates a confidence-driven campaign.
type AdaptiveResult struct {
	// Spec is the campaign as executed.
	Spec Spec
	// Strata are the final per-stratum estimates.
	Strata []plan.StratumStatus
	// Stratified is the population-weighted whole-program estimate,
	// comparable to a fixed stratified campaign's.
	Stratified *fault.StratifiedResult
	// Counts are the raw (unweighted) outcome totals.
	Counts [fault.NumOutcomes]int
	// Rounds is the number of rounds the planner emitted.
	Rounds int
	// Trials is the total trials observed (executed + resumed).
	Trials int
	// Executed counts trials actually executed this run (Trials minus
	// journal-resumed ones).
	Executed int
	// Converged reports whether every stratum reached the target
	// half-width (false = the MaxTrials budget ran out first).
	Converged bool
	// FixedBudget is the fixed-budget equivalent trial count for the
	// same precision/confidence/strata — the savings baseline.
	FixedBudget int
	// Planner is the planner's configuration after defaulting: the
	// precision, confidence, round size and trial cap the allocation
	// actually used.
	Planner plan.AdaptiveConfig
	// Records are the checkpoint records of every observed trial, in
	// plan-index order. Identical across worker counts, round splits
	// and resume for equal seeds.
	Records []fault.TrialRecord
	// Session reports what the campaign's executor session amortized
	// across the round loop (bucket-preparation cache hits, pool
	// reuse). Observational only.
	Session fault.SessionStats
	// Elapsed is the wall time, golden capture included.
	Elapsed time.Duration
}

// GoldenFor resolves the workload's golden run through the Runner's
// cache, exactly as a campaign over it would. The fabric coordinator
// uses this to size planner strata without running a campaign.
func (r *Runner) GoldenFor(w Workload) (*fault.GoldenRun, error) {
	spec := Spec{Workload: w}
	return r.golden(&spec)
}

// RunPlans executes an explicit window of planner-emitted plans
// through the trial executor. lo is the plan index of plans[0];
// records stream through spec.OnTrial with plan indices, and
// spec.Resume records inside the window are honored without
// re-execution. spec.Trials and spec.Adaptive are ignored.
//
// RunPlans is the one-shot form: it opens a session for the single
// window and closes it. Round loops hold a session open instead.
func (r *Runner) RunPlans(ctx context.Context, spec Spec, plans []fault.Plan, lo int) (*Result, error) {
	sess, err := r.OpenSession(spec)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return runWindow(ctx, sess, spec, plans, lo)
}

// RunStratified executes the fixed Relyzer-style stratified campaign
// through the round loop: plan.Stratified emits the classic per-stratum
// draw as one round on the ordinary trial executor.
func (r *Runner) RunStratified(ctx context.Context, w Workload, cfg fault.StratifiedConfig) (*fault.StratifiedResult, error) {
	spec := Spec{
		Workload: w,
		Class:    cfg.Class,
		Region:   fault.RAny,
		Window:   cfg.Window,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
	}
	sess, err := r.OpenSession(spec)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	planner, err := plan.NewStratified(sess.Golden(), cfg)
	if err != nil {
		return nil, err
	}
	if _, err := runRounds(ctx, sess, spec, planner, 1, nil); err != nil {
		return nil, err
	}
	return planner.Result(), nil
}

// RunAdaptive executes a confidence-driven campaign: plan.Adaptive
// allocates rounds to the widest-interval strata and the round loop
// executes each round as k concurrent sub-windows (k <= 1 runs rounds
// unsplit). The observed trial set is bit-identical for every k and
// every worker count at equal seeds, because allocation depends only
// on outcomes and outcomes only on plans; spec.Resume records replay
// the same way, so an interrupted adaptive campaign resumes onto the
// identical trial sequence.
//
// On cancellation RunAdaptive returns the partial result with the
// rounds completed so far together with a non-nil error.
func (r *Runner) RunAdaptive(ctx context.Context, spec Spec, k int) (*AdaptiveResult, error) {
	if spec.Adaptive == nil {
		return nil, fmt.Errorf("campaign: RunAdaptive needs spec.Adaptive")
	}
	start := time.Now()
	sess, err := r.OpenSession(spec)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	p, err := spec.NewPlanner(sess.Golden())
	if err != nil {
		return nil, err
	}
	planner := p.(*plan.Adaptive)

	var (
		executed int
		records  []fault.TrialRecord
	)
	onRound := spec.Adaptive.OnRound
	_, err = runRounds(ctx, sess, spec, planner, k, func(round plan.Round, parts []*Result) {
		for _, part := range parts {
			executed += part.Executed
			for i := range part.Fault.Trials {
				records = append(records, part.Fault.Trials[i].Record(part.Fault.Config.PlanOffset+i))
			}
		}
		if onRound == nil {
			return
		}
		st := RoundStatus{Round: round.Index, RoundTrials: len(round.Plans), Trials: planner.Total()}
		for _, s := range planner.Strata() {
			st.Strata++
			if s.Done {
				st.StrataDone++
			}
			st.MaxHalfWidth = max(st.MaxHalfWidth, s.HalfWidth)
		}
		onRound(st)
	})

	res := AdaptiveResultOf(spec, planner)
	res.Executed, res.Records = executed, records
	res.Session = sess.Stats()
	res.Elapsed = time.Since(start)
	return res, err
}

// AdaptiveResultOf aggregates an adaptive planner's observed state —
// strata, weighted estimate, raw counts, rounds, convergence and the
// fixed-budget baseline — into the result of the campaign run as spec.
// RunAdaptive ends with it, and the fabric coordinator builds its
// cluster result with it, so both aggregate the same way; the
// execution fields (Executed, Records, Session, Elapsed) are the
// caller's.
func AdaptiveResultOf(spec Spec, planner *plan.Adaptive) *AdaptiveResult {
	res := &AdaptiveResult{
		Spec:       spec,
		Strata:     planner.Strata(),
		Stratified: planner.Result(),
		Rounds:     planner.Rounds(),
		Trials:     planner.Total(),
		Converged:  planner.Converged(),
		Planner:    planner.Config(),
	}
	for _, st := range res.Stratified.Strata {
		for o, c := range st.Counts {
			res.Counts[o] += c
		}
	}
	res.FixedBudget = plan.FixedBudget(res.Planner.Precision, res.Planner.Confidence, len(res.Strata))
	return res
}

// runRounds is the campaign round loop every Runner entry point drives:
// it alternates planner p with sess until p is exhausted, executing
// each round as up to k concurrent sub-windows of the session's one
// worker pool and feeding the outcomes back in plan order. The session
// serializes spec.OnTrial across the sub-windows and folds its resume
// records into whichever windows they fall in.
//
// observe, when non-nil, receives each completed round's sub-window
// results in plan order after the planner has folded them. runRounds
// returns the last round's sub-window results — on error (cancellation
// included) those of the interrupted round, which the planner has not
// observed and whose nil entries are windows that never ran.
func runRounds(ctx context.Context, sess *fault.Session, spec Spec, p plan.Planner, k int, observe func(plan.Round, []*Result)) ([]*Result, error) {
	var parts []*Result
	for {
		round, ok := p.Next()
		if !ok {
			return parts, nil
		}
		n := len(round.Plans)
		fan := min(max(k, 1), n)
		parts = make([]*Result, fan)
		errs := make([]error, fan)
		var wg sync.WaitGroup
		for j := range parts {
			lo, hi := j*n/fan, (j+1)*n/fan
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[j], errs[j] = runWindow(ctx, sess, spec, round.Plans[lo:hi], round.Lo+lo)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return parts, err
			}
		}
		outcomes := make([]fault.Outcome, 0, n)
		for _, part := range parts {
			for i := range part.Fault.Trials {
				outcomes = append(outcomes, part.Fault.Trials[i].Outcome)
			}
		}
		p.Observe(round, outcomes)
		if observe != nil {
			observe(round, parts)
		}
	}
}
