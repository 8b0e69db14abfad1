// Package fabric turns N vsd processes into one campaign cluster.
//
// A Coordinator runs every campaign through one round loop: it rebuilds
// the campaign's planner from the spec (campaign.Spec.NewPlanner — a
// one-round plan.Static for a fixed budget, plan.Adaptive for a
// confidence-driven one), splits each round into plan-carrying
// round-shards and leases them to worker vsds over HTTP. Leases carry
// deadlines and are journaled (in the internal/journal Log that also
// backs internal/service's job queue), so a dead worker's shard is
// reassigned after its lease expires and a restarted coordinator
// replays its lease table instead of starting over. When every shard
// is leased, an idle worker steals the shard with the most remaining
// trials (a duplicate lease); the first journaled completion wins and
// later duplicates are discarded.
//
// Distribution changes where trials run, not what they compute. A
// worker executes exactly the shipped plans on its cached
// fault.Session and sends back only fault.TrialRecords plus retained
// SDC bytes; the planner folds the outcomes in plan order, so its next
// round is the one a single node would draw. A finished static
// campaign is rebuilt by one campaign.Runner.Run with every journaled
// record as Resume — zero re-execution; plans, histograms and the rate
// curve regenerate from the seed — bit-identically to the single-node
// run.
package fabric

import (
	"fmt"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/plan"
	"vsresil/internal/summarize"
	"vsresil/internal/vs"

	"vsresil/internal/virat"
)

// CampaignSpec is the wire form of a cluster campaign: everything a
// worker needs to rebuild the exact same campaign.Spec the coordinator
// decomposed. Only synthetic inputs are supported on the fabric —
// uploaded frame sets would have to ship to every worker.
type CampaignSpec struct {
	// Algorithm is the VS variant under test (default VS). A custom
	// WorkloadBuilder may interpret this freely (the test harness keys
	// toy workloads off it).
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
	// Trials is the full campaign size (required, > 0).
	Trials int `json:"trials"`
	// Seed makes the campaign reproducible across the cluster.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds each worker's own trial parallelism
	// (0 = GOMAXPROCS on the worker).
	Workers int `json:"workers,omitempty"`
	// KeepSDC retains SDC output bytes; MaxSDC caps how many (<= 0 =
	// unlimited). Retention is deterministic across any decomposition:
	// the rebuilt result keeps the MaxSDC lowest-plan-index SDCs.
	KeepSDC bool `json:"keep_sdc,omitempty"`
	MaxSDC  int  `json:"max_sdc,omitempty"`
	// Adaptive switches the campaign from the fixed Trials budget to
	// confidence-driven allocation: the coordinator plans rounds from
	// the merged per-stratum counts and leases plan-carrying round
	// shards until every stratum rate is within Precision at
	// Confidence. Trials is ignored; the budget cap is MaxTrials
	// (0 = the fixed-budget equivalent).
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

// dropLegacyKnobs clears the adaptive-only fields of a fixed-budget
// spec. Validate rejects them, but journals written before it did may
// carry them; they never had an effect, so replay drops the fields
// rather than the campaign.
func (cs *CampaignSpec) dropLegacyKnobs() {
	if !cs.Adaptive {
		cs.Precision, cs.Confidence, cs.RoundSize, cs.MaxTrials = 0, 0, 0, 0
	}
}

// Validate checks the declarative fields without building a workload.
func (cs *CampaignSpec) Validate() error {
	if cs.Adaptive {
		if cs.Precision < 0 || cs.Precision >= 0.5 {
			return fmt.Errorf("fabric: adaptive precision %v outside [0, 0.5)", cs.Precision)
		}
		if cs.Confidence < 0 || cs.Confidence >= 1 {
			return fmt.Errorf("fabric: adaptive confidence %v outside [0, 1)", cs.Confidence)
		}
		if cs.RoundSize < 0 || cs.MaxTrials < 0 {
			return fmt.Errorf("fabric: negative adaptive round size or trial cap")
		}
	} else {
		if cs.Trials <= 0 {
			return fmt.Errorf("fabric: campaign needs trials > 0, got %d", cs.Trials)
		}
		if cs.Precision != 0 || cs.Confidence != 0 || cs.RoundSize != 0 || cs.MaxTrials != 0 {
			return fmt.Errorf("fabric: precision/confidence/round_size/max_trials are adaptive knobs; set \"adaptive\": true")
		}
	}
	if _, err := fault.ParseClass(cs.Class); err != nil {
		return err
	}
	if _, err := fault.ParseRegion(cs.Region); err != nil {
		return err
	}
	if _, err := virat.ParseScenario(cs.Scenario); err != nil {
		return err
	}
	if _, err := summarize.Parse(cs.Summarizer, vs.DefaultConfig(vs.AlgVS)); err != nil {
		return err
	}
	return nil
}

// WorkloadBuilder maps a wire spec to the workload a campaign injects
// into. Coordinator and workers must use the same builder: the rebuild's
// bit-identity argument assumes every node captures the same golden
// run, which holds because workloads are deterministic functions of
// the spec.
type WorkloadBuilder func(cs CampaignSpec) (campaign.Workload, error)

// DefaultWorkload resolves the spec's (scenario, summarizer, algorithm)
// cell against the synthetic input through the campaign registry. A
// spec with empty scenario/summarizer fields builds the identity/vs
// workload — byte-identical to the pre-matrix VS constructor.
func DefaultWorkload(cs CampaignSpec) (campaign.Workload, error) {
	preset, err := virat.ParsePreset(cs.Scale, cs.Frames)
	if err != nil {
		return campaign.Workload{}, err
	}
	input := cs.Input
	if input == 0 {
		input = 1
	}
	cell := campaign.Cell{Scenario: cs.Scenario, Summarizer: cs.Summarizer, Algorithm: cs.Algorithm}
	return cell.Workload(input, preset, cs.Seed)
}

// campaignSpec translates the wire spec into the engine Spec. The same
// translation runs on workers (to execute leased plans) and on the
// coordinator (to plan rounds and rebuild results through the resume
// path), which is what keeps both sides' plan spaces identical.
func (cs CampaignSpec) campaignSpec(w campaign.Workload) (campaign.Spec, error) {
	class, err := fault.ParseClass(cs.Class)
	if err != nil {
		return campaign.Spec{}, err
	}
	region, err := fault.ParseRegion(cs.Region)
	if err != nil {
		return campaign.Spec{}, err
	}
	spec := campaign.Spec{
		Workload: w,
		Class:    class,
		Region:   region,
		Trials:   cs.Trials,
		Seed:     cs.Seed,
		Workers:  cs.Workers,
		SDC:      campaign.SDCPolicy{Keep: cs.KeepSDC, Max: cs.MaxSDC},
	}
	if cs.Adaptive {
		spec.Adaptive = &campaign.AdaptiveSpec{
			Precision:  cs.Precision,
			Confidence: cs.Confidence,
			RoundSize:  cs.RoundSize,
			MaxTrials:  cs.MaxTrials,
		}
	}
	return spec, nil
}

// SDCOutput carries one retained SDC trial's corrupted output bytes,
// keyed by plan index. Data marshals as base64 on the wire.
type SDCOutput struct {
	Index int    `json:"i"`
	Data  []byte `json:"d"`
}

// Lease is one granted round-shard: the campaign context a worker
// needs, the plans to execute and the deadline discipline it must keep.
type Lease struct {
	ID       string       `json:"id"`
	Campaign string       `json:"campaign"`
	Spec     CampaignSpec `json:"spec"`
	// ShardIndex names the coordinator's shard slot and ShardCount the
	// slots allocated so far; PlanLo/PlanHi are the shard's plan-index
	// window [lo, hi).
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	PlanLo     int `json:"plan_lo"`
	PlanHi     int `json:"plan_hi"`
	// TTL is the lease duration: a worker must heartbeat well inside
	// it or the shard is reassigned.
	TTL time.Duration `json:"ttl_ns"`
	// Plans are the planner's trials for the window: the worker
	// executes exactly these (plan index PlanLo+i for Plans[i]).
	Plans []fault.Plan `json:"plans,omitempty"`
}

// ShardResult is a worker's completed shard: the checkpoint records of
// every trial in the window (indices are plan indices) plus the SDC
// outputs its retention policy kept.
type ShardResult struct {
	Worker   string              `json:"worker"`
	Lease    string              `json:"lease"`
	Campaign string              `json:"campaign"`
	Shard    int                 `json:"shard"`
	Recs     []fault.TrialRecord `json:"recs"`
	SDC      []SDCOutput         `json:"sdc,omitempty"`
}

// CampaignStatus is the wire form of a cluster campaign's progress.
type CampaignStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total"`
	TrialsDone  int    `json:"trials_done"`
	TrialsTotal int    `json:"trials_total"`
	Error       string `json:"error,omitempty"`
}

// CampaignResult is the wire form of a finished static cluster
// campaign — the same aggregates the single-node CampaignResult
// reports, computed from the bit-identical rebuilt result.
type CampaignResult struct {
	Class       string             `json:"class"`
	Region      string             `json:"region"`
	Trials      int                `json:"trials"`
	Shards      int                `json:"shards"`
	Completed   int                `json:"completed"`
	TotalTaps   uint64             `json:"total_taps"`
	GoldenSteps uint64             `json:"golden_steps"`
	Counts      map[string]int     `json:"counts"`
	Rates       map[string]float64 `json:"rates"`
	CrashSplit  map[string]int     `json:"crash_split,omitempty"`
	RegChi2     float64            `json:"reg_chi2"`
	CurveKnee   int                `json:"curve_knee"`
	SDCKept     int                `json:"sdc_kept,omitempty"`
	ElapsedSec  float64            `json:"elapsed_sec"`
}

// wireResult renders the rebuilt engine result for the API.
func wireResult(cs CampaignSpec, shards int, res *campaign.Result) *CampaignResult {
	fres := res.Fault
	out := &CampaignResult{
		Class:       res.Spec.Class.String(),
		Region:      res.Spec.Region.String(),
		Trials:      cs.Trials,
		Shards:      shards,
		Completed:   fres.Completed,
		TotalTaps:   fres.TotalTaps,
		GoldenSteps: fres.GoldenSteps,
		Counts:      make(map[string]int),
		Rates:       make(map[string]float64),
		RegChi2:     fres.RegHist.ChiSquareUniform(),
		CurveKnee:   fres.Curve.Knee(0.02),
		SDCKept:     len(fres.SDCOutputs()),
		ElapsedSec:  res.Elapsed.Seconds(),
	}
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		out.Counts[o.String()] = fres.Counts[o]
		out.Rates[o.String()] = fres.Rate(o)
	}
	if len(fres.CrashCounts) > 0 {
		out.CrashSplit = make(map[string]int)
		for k, n := range fres.CrashCounts {
			out.CrashSplit[k.String()] = n
		}
	}
	return out
}

// AdaptiveStratumResult is one stratum's final estimate on the wire.
type AdaptiveStratumResult struct {
	Region     string         `json:"region"`
	Bits       string         `json:"bits"`
	Population uint64         `json:"population"`
	Trials     int            `json:"trials"`
	Counts     map[string]int `json:"counts"`
	HalfWidth  float64        `json:"half_width"`
	Done       bool           `json:"done"`
}

// AdaptiveCampaignResult is the wire form of a finished adaptive
// cluster campaign: the population-weighted rates plus the per-stratum
// precision the allocation actually reached, and the fixed-budget
// trial count the early stopping is measured against.
type AdaptiveCampaignResult struct {
	Class       string                  `json:"class"`
	Region      string                  `json:"region"`
	Precision   float64                 `json:"precision"`
	Confidence  float64                 `json:"confidence"`
	Rounds      int                     `json:"rounds"`
	Trials      int                     `json:"trials"`
	FixedBudget int                     `json:"fixed_budget"`
	Converged   bool                    `json:"converged"`
	Rates       map[string]float64      `json:"rates"`
	Strata      []AdaptiveStratumResult `json:"strata"`
	ElapsedSec  float64                 `json:"elapsed_sec"`
}

// adaptiveWireResult renders the planner's final state for the API.
func adaptiveWireResult(planner *plan.Adaptive) *AdaptiveCampaignResult {
	cfg := planner.Config()
	strata := planner.Strata()
	out := &AdaptiveCampaignResult{
		Class:       cfg.Class.String(),
		Region:      cfg.Region.String(),
		Precision:   cfg.Precision,
		Confidence:  cfg.Confidence,
		Rounds:      planner.Rounds(),
		Trials:      planner.Total(),
		FixedBudget: plan.FixedBudget(cfg.Precision, cfg.Confidence, len(strata)),
		Converged:   planner.Converged(),
		Rates:       make(map[string]float64),
		Strata:      make([]AdaptiveStratumResult, len(strata)),
	}
	for o, rate := range planner.Result().WeightedRates() {
		out.Rates[fault.Outcome(o).String()] = rate
	}
	for i, s := range strata {
		ws := AdaptiveStratumResult{
			Region:     s.Region.String(),
			Bits:       s.Bits.String(),
			Population: s.Population,
			Trials:     s.Trials,
			Counts:     make(map[string]int),
			HalfWidth:  s.HalfWidth,
			Done:       s.Done,
		}
		for o, n := range s.Counts {
			ws.Counts[fault.Outcome(o).String()] = n
		}
		out.Strata[i] = ws
	}
	return out
}
