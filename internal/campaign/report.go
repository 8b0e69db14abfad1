package campaign

import (
	"time"

	"vsresil/internal/fault"
)

// Report is the wire form of a finished campaign: the Mask/Crash/SDC/
// Hang table every surface returns — vsd's campaign job result, the
// fabric coordinator's campaign result and what cmd/afirun prints.
// Request.Report renders a fixed-budget Result into it and
// Request.AdaptiveReport an AdaptiveResult; the adaptive section is
// empty for a fixed budget.
type Report struct {
	// Scenario, Summarizer and Algorithm are the request's workload
	// cell in canonical label form; Input names the workload.
	Scenario   string `json:"scenario"`
	Summarizer string `json:"summarizer"`
	Algorithm  string `json:"algorithm"`
	Input      string `json:"input"`
	Class      string `json:"class"`
	Region     string `json:"region"`
	// Trials is the campaign size: the fixed budget, or the adaptive
	// allocation. Completed counts the finished trials and Resumed
	// those folded from checkpoint records instead of executed here.
	Trials    int `json:"trials"`
	Completed int `json:"completed"`
	Resumed   int `json:"resumed"`
	// Shards is the fabric's round-shard count (0 off the fabric).
	Shards      int                `json:"shards,omitempty"`
	TotalTaps   uint64             `json:"total_taps"`
	GoldenSteps uint64             `json:"golden_steps"`
	Counts      map[string]int     `json:"counts"`
	Rates       map[string]float64 `json:"rates"`
	CrashSplit  map[string]int     `json:"crash_split,omitempty"`
	// RegChi2 is the register-coverage chi-square against uniform and
	// CurveKnee the rate curve's knee (fixed budgets only).
	RegChi2   float64 `json:"reg_chi2"`
	CurveKnee int     `json:"curve_knee"`
	// SDCKept counts the SDC outputs retained.
	SDCKept    int     `json:"sdc_kept,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// TrialsPerSec covers only the trials this process executed.
	TrialsPerSec float64 `json:"trials_per_sec"`

	// Adaptive campaigns fill the planner section: the precision
	// targets after defaulting, the per-stratum estimates and the
	// fixed-budget savings baseline. Rates are then the
	// population-weighted estimate and Counts the raw totals.
	Adaptive    bool            `json:"adaptive,omitempty"`
	Precision   float64         `json:"precision,omitempty"`
	Confidence  float64         `json:"confidence,omitempty"`
	Rounds      int             `json:"rounds,omitempty"`
	FixedBudget int             `json:"fixed_budget,omitempty"`
	Converged   bool            `json:"converged,omitempty"`
	Strata      []StratumReport `json:"strata,omitempty"`
}

// StratumReport is one adaptive stratum's final estimate.
type StratumReport struct {
	Region     string         `json:"region"`
	Bits       string         `json:"bits"`
	Population uint64         `json:"population"`
	Trials     int            `json:"trials"`
	Counts     map[string]int `json:"counts"`
	HalfWidth  float64        `json:"half_width"`
	Done       bool           `json:"done"`
}

// newReport starts the report of a campaign run as spec: the labels.
func (r *Request) newReport(spec Spec) *Report {
	c := r.Cell().Canonical()
	return &Report{
		Scenario:   c.Scenario,
		Summarizer: c.Summarizer,
		Algorithm:  c.Algorithm,
		Input:      spec.Workload.Name,
		Class:      spec.Class.String(),
		Region:     spec.Region.String(),
		Counts:     make(map[string]int),
		Rates:      make(map[string]float64),
	}
}

// Report renders a fixed-budget campaign result.
func (r *Request) Report(res *Result) *Report {
	fres := res.Fault
	rep := r.newReport(res.Spec)
	rep.Trials = res.Spec.Trials
	rep.Completed, rep.Resumed = fres.Completed, fres.Resumed
	rep.TotalTaps, rep.GoldenSteps = fres.TotalTaps, fres.GoldenSteps
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		rep.Counts[o.String()] = fres.Counts[o]
		rep.Rates[o.String()] = fres.Rate(o)
	}
	if len(fres.CrashCounts) > 0 {
		rep.CrashSplit = make(map[string]int)
		for k, n := range fres.CrashCounts {
			rep.CrashSplit[k.String()] = n
		}
	}
	rep.RegChi2 = fres.RegHist.ChiSquareUniform()
	rep.CurveKnee = fres.Curve.Knee(0.02)
	rep.SDCKept = len(fres.SDCOutputs())
	rep.SetElapsed(res.Elapsed)
	return rep
}

// AdaptiveReport renders a confidence-driven campaign result.
func (r *Request) AdaptiveReport(res *AdaptiveResult) *Report {
	rep := r.newReport(res.Spec)
	rep.Trials, rep.Completed, rep.Resumed = res.Trials, res.Trials, res.Trials-res.Executed
	rates := res.Stratified.WeightedRates()
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		rep.Counts[o.String()] = res.Counts[o]
		rep.Rates[o.String()] = rates[o]
	}
	rep.Adaptive = true
	rep.Precision, rep.Confidence = res.Planner.Precision, res.Planner.Confidence
	rep.Rounds, rep.FixedBudget, rep.Converged = res.Rounds, res.FixedBudget, res.Converged
	for _, s := range res.Strata {
		sr := StratumReport{
			Region:     s.Region.String(),
			Bits:       s.Bits.String(),
			Population: s.Population,
			Trials:     s.Trials,
			Counts:     make(map[string]int),
			HalfWidth:  s.HalfWidth,
			Done:       s.Done,
		}
		for o, n := range s.Counts {
			sr.Counts[fault.Outcome(o).String()] = n
		}
		rep.Strata = append(rep.Strata, sr)
	}
	rep.SetElapsed(res.Elapsed)
	return rep
}

// SetElapsed sets the report's wall time and the throughput of the
// trials this process executed (Completed - Resumed) over it.
func (rep *Report) SetElapsed(d time.Duration) {
	rep.ElapsedSec = d.Seconds()
	rep.TrialsPerSec = 0
	if n := rep.Completed - rep.Resumed; n > 0 && d > 0 {
		rep.TrialsPerSec = float64(n) / d.Seconds()
	}
}
