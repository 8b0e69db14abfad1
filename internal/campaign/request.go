package campaign

import (
	"fmt"

	"vsresil/internal/fault"
	"vsresil/internal/plan"
	"vsresil/internal/summarize"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// TrialLimit bounds every trial count a request may ask for — the
// fixed budget, the adaptive round size and the adaptive trial cap
// (explicit or defaulted). It is about 1,000x the paper's 1,000-trial
// campaigns; plan.Static allocates a campaign's plans in one call, so
// an unbounded count from the wire would exhaust memory before the
// first trial ran.
const TrialLimit = 1 << 20

// WorkerLimit bounds the trial parallelism a request may ask for. Each
// executor worker is a goroutine with its own trial arena, so an
// unbounded count from the wire would start that many on every host the
// campaign runs on; fault.NewSession further clamps the pool to a small
// multiple of the executing host's CPUs.
const WorkerLimit = 256

// FrameLimit bounds the frame count of a campaign or summarize input:
// 10x the paper preset's 1,000 frames.
const FrameLimit = 10 * 1000

// Request is the wire form of one campaign: a workload cell on a
// generated input, the fault model, the trial budget (fixed or
// adaptive) and the execution knobs. vsd campaign jobs, fabric
// campaigns and cmd/afirun all describe a campaign this way, validate
// it with Validate, resolve its workload with Workload and translate
// it to the engine Spec with Spec — so a request means the same
// campaign on every surface. Uploaded frames are the one input it does
// not carry: only vsd accepts them.
type Request struct {
	// Algorithm is the VS variant under test (default VS). A custom
	// fabric WorkloadBuilder may interpret this freely (the fabric
	// tests key toy workloads off it), so Validate leaves it to
	// workload resolution.
	Algorithm string `json:"algorithm,omitempty"`
	// Scenario is the capture scenario applied to the synthetic input:
	// "" or "identity" for the clean baseline, or a "+"-chain of
	// degradations (e.g. "lowlight+fog").
	Scenario string `json:"scenario,omitempty"`
	// Summarizer selects the backend: "" or "vs" for panorama
	// stitching, "storyboard" for the keyframe filmstrip.
	Summarizer string `json:"summarizer,omitempty"`
	// Class is the register class: "gpr" or "fpr" (default gpr).
	Class string `json:"class,omitempty"`
	// Region restricts injections to one function ("" = whole app).
	Region string `json:"region,omitempty"`
	// Input selects the synthetic sequence (1 or 2, default 1).
	Input int `json:"input,omitempty"`
	// Scale is the preset size: "test", "bench" or "paper".
	Scale string `json:"scale,omitempty"`
	// Frames overrides the preset's frame count (0 = preset default).
	Frames int `json:"frames,omitempty"`
	// Trials is the fixed campaign size (required, > 0, unless
	// Adaptive is set).
	Trials int `json:"trials"`
	// Seed makes the campaign reproducible; it also fixes the
	// workload's own stochastic choices.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds trial parallelism (0 = GOMAXPROCS; on the fabric,
	// per cluster worker).
	Workers int `json:"workers,omitempty"`
	// KeepSDC retains SDC output bytes; MaxSDC caps how many (<= 0 =
	// unlimited). Retention is deterministic across any decomposition:
	// the MaxSDC lowest-plan-index SDCs are kept.
	KeepSDC bool `json:"keep_sdc,omitempty"`
	MaxSDC  int  `json:"max_sdc,omitempty"`
	// Adaptive switches the campaign from the fixed Trials budget to
	// confidence-driven allocation: rounds flow to the strata with the
	// widest outcome-rate intervals until every rate is within
	// Precision at Confidence. Trials is ignored; the budget cap is
	// MaxTrials (0 = the fixed-budget equivalent).
	Adaptive bool `json:"adaptive,omitempty"`
	// Precision is the target Wilson half-width (0 = 0.05) and
	// Confidence the interval level (0 = 0.95) for adaptive campaigns.
	Precision  float64 `json:"precision,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// RoundSize is the per-round trial budget after the bootstrap
	// (0 = planner default); MaxTrials caps the total allocation.
	RoundSize int `json:"round_size,omitempty"`
	MaxTrials int `json:"max_trials,omitempty"`
}

// DropLegacyKnobs clears the adaptive-only fields of a fixed-budget
// request. Validate rejects them, but journals written before it did
// may carry them; they never had an effect, so replay drops the fields
// rather than the campaign.
func (r *Request) DropLegacyKnobs() {
	if !r.Adaptive {
		r.Precision, r.Confidence, r.RoundSize, r.MaxTrials = 0, 0, 0, 0
	}
}

// Validate checks the declarative fields without building a workload:
// the budget rule (a positive fixed Trials, or in-range adaptive knobs
// and no adaptive knob on a fixed budget), TrialLimit, WorkerLimit and
// FrameLimit,
// and that the class, region, scenario, summarizer, input and scale
// parse.
func (r *Request) Validate() error {
	region, err := fault.ParseRegion(r.Region)
	if err != nil {
		return err
	}
	if r.Adaptive {
		if r.Precision < 0 || r.Precision >= 0.5 {
			return fmt.Errorf("campaign: adaptive precision %v outside [0, 0.5)", r.Precision)
		}
		if r.Confidence < 0 || r.Confidence >= 1 {
			return fmt.Errorf("campaign: adaptive confidence %v outside [0, 1)", r.Confidence)
		}
		if r.RoundSize < 0 || r.MaxTrials < 0 {
			return fmt.Errorf("campaign: adaptive round_size/max_trials must be >= 0")
		}
		// An adaptive campaign ignores trials, but the field still
		// reaches progress totals, so it is bounded like the others.
		if r.Trials < 0 || r.Trials > TrialLimit {
			return fmt.Errorf("campaign: trials %d outside [0, %d]", r.Trials, TrialLimit)
		}
		// Bound the planner's effective budget over the most strata the
		// region can have: a zero max_trials defaults to the fixed-budget
		// equivalent, which grows without bound as precision tightens.
		strata := int(fault.NumBitGroups)
		if region == fault.RAny {
			strata *= int(fault.NumRegions)
		}
		cfg := plan.AdaptiveConfig{Precision: r.Precision, Confidence: r.Confidence, RoundSize: r.RoundSize, MaxTrials: r.MaxTrials}
		cfg.WithDefaults(strata)
		if cfg.MaxTrials > TrialLimit || cfg.RoundSize > TrialLimit {
			return fmt.Errorf("campaign: adaptive trial cap %d or round size %d over the %d-trial limit (set max_trials or loosen precision)",
				cfg.MaxTrials, cfg.RoundSize, TrialLimit)
		}
	} else {
		if r.Trials <= 0 || r.Trials > TrialLimit {
			return fmt.Errorf("campaign: trials %d outside [1, %d]", r.Trials, TrialLimit)
		}
		if r.Precision != 0 || r.Confidence != 0 || r.RoundSize != 0 || r.MaxTrials != 0 {
			return fmt.Errorf("campaign: precision/confidence/round_size/max_trials are adaptive knobs; enable adaptive to use them")
		}
	}
	if r.Workers < 0 || r.Workers > WorkerLimit {
		return fmt.Errorf("campaign: workers %d outside [0, %d]", r.Workers, WorkerLimit)
	}
	if r.Frames > FrameLimit {
		return fmt.Errorf("campaign: %d frames over the %d-frame limit", r.Frames, FrameLimit)
	}
	if r.Input < 0 || r.Input > 2 {
		return fmt.Errorf("campaign: input must be 1 or 2, got %d", r.Input)
	}
	if _, err := virat.ParsePreset(r.Scale, r.Frames); err != nil {
		return err
	}
	if _, err := fault.ParseClass(r.Class); err != nil {
		return err
	}
	if _, err := virat.ParseScenario(r.Scenario); err != nil {
		return err
	}
	if _, err := summarize.Parse(r.Summarizer, vs.DefaultConfig(vs.AlgVS)); err != nil {
		return err
	}
	return nil
}

// Cell returns the request's workload cell.
func (r *Request) Cell() Cell {
	return Cell{Scenario: r.Scenario, Summarizer: r.Summarizer, Algorithm: r.Algorithm}
}

// Workload resolves the request's cell against its generated input
// through Cell.Workload (input 0 = 1). The workload and its golden-cache
// key are deterministic functions of the request, which is what lets
// every fabric node capture the same golden run.
func (r *Request) Workload() (Workload, error) {
	preset, err := virat.ParsePreset(r.Scale, r.Frames)
	if err != nil {
		return Workload{}, err
	}
	return r.Cell().Workload(max(r.Input, 1), preset, r.Seed)
}

// Spec translates the request into the engine Spec over workload w.
// It is the one translation: a local run, a vsd job, a fabric worker
// executing leased plans and the coordinator planning rounds all go
// through it, which keeps their plan spaces identical.
func (r *Request) Spec(w Workload) (Spec, error) {
	class, err := fault.ParseClass(r.Class)
	if err != nil {
		return Spec{}, err
	}
	region, err := fault.ParseRegion(r.Region)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{
		Workload: w,
		Class:    class,
		Region:   region,
		Trials:   r.Trials,
		Seed:     r.Seed,
		Workers:  r.Workers,
		SDC:      SDCPolicy{Keep: r.KeepSDC, Max: r.MaxSDC},
	}
	if r.Adaptive {
		spec.Adaptive = &AdaptiveSpec{
			Precision:  r.Precision,
			Confidence: r.Confidence,
			RoundSize:  r.RoundSize,
			MaxTrials:  r.MaxTrials,
		}
	}
	return spec, nil
}
