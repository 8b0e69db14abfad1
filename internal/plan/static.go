package plan

import (
	"fmt"

	"vsresil/internal/fault"
)

// StaticConfig parameterizes the classic fixed-budget campaign.
type StaticConfig struct {
	// Class, Region and Seed select the plan stream; Window overrides
	// the liveness window (0 means the class default).
	Class  fault.Class
	Region fault.Region
	Seed   uint64
	Window uint64
	// Trials is the campaign's trial budget.
	Trials int
}

// Static emits the classic campaign as a single round: the first
// Trials plans of fault.GeneratePlans' seeded uniform stream, at plan
// indices [0, Trials).
type Static struct {
	cfg       StaticConfig
	totalTaps uint64
	emitted   bool
}

// NewStatic validates cfg against the golden run's site geometry.
func NewStatic(golden *fault.GoldenRun, cfg StaticConfig) (*Static, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("plan: non-positive trial count %d", cfg.Trials)
	}
	taps := golden.Taps(cfg.Class, cfg.Region)
	if taps == 0 {
		return nil, fault.ErrNoTaps
	}
	return &Static{cfg: cfg, totalTaps: taps}, nil
}

// Next emits the whole campaign once.
func (s *Static) Next() (Round, bool) {
	if s.emitted {
		return Round{}, false
	}
	s.emitted = true
	window := fault.WindowFor(s.cfg.Class, s.cfg.Window)
	return Round{
		Index: 0,
		Plans: fault.GeneratePlans(s.cfg.Seed, s.cfg.Class, s.cfg.Region, window, s.cfg.Trials, s.totalTaps),
	}, true
}

// Observe is a no-op: a static budget never reacts to outcomes.
func (s *Static) Observe(Round, []fault.Outcome) {}
