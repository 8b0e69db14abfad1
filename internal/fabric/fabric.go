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
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

// CampaignSpec is the wire form of a cluster campaign: the shared
// campaign.Request, from which every worker rebuilds the exact same
// campaign.Spec the coordinator decomposed. Only synthetic inputs are
// supported on the fabric — uploaded frame sets would have to ship to
// every worker.
type CampaignSpec = campaign.Request

// WorkloadBuilder maps a wire spec to the workload a campaign injects
// into. Coordinator and workers must use the same builder: the rebuild's
// bit-identity argument assumes every node captures the same golden
// run, which holds because workloads are deterministic functions of
// the spec.
type WorkloadBuilder func(cs CampaignSpec) (campaign.Workload, error)

// DefaultWorkload resolves the spec's workload through the campaign
// registry (campaign.Request.Workload).
func DefaultWorkload(cs CampaignSpec) (campaign.Workload, error) {
	return cs.Workload()
}

// engineSpec builds cs's workload with build and translates cs into
// the engine Spec over it: the construction the coordinator and every
// worker perform identically.
func engineSpec(build WorkloadBuilder, cs CampaignSpec) (campaign.Spec, error) {
	w, err := build(cs)
	if err != nil {
		return campaign.Spec{}, err
	}
	return cs.Spec(w)
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
	// Duplicate marks a stolen lease: another worker already runs the
	// shard and the first completion wins. Its holder heartbeats at its
	// idle poll interval instead of TTL/3, so it abandons the run as
	// soon as the other copy completes.
	Duplicate bool `json:"duplicate,omitempty"`
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
