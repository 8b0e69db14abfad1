package plan

import (
	"fmt"

	"vsresil/internal/fault"
	"vsresil/internal/stats"
)

// AdaptiveConfig parameterizes confidence-driven allocation.
type AdaptiveConfig struct {
	// Class selects the register file; Region restricts the strata to
	// one function (fault.RAny = all).
	Class  fault.Class
	Region fault.Region
	// Seed makes the whole campaign — plans and allocation —
	// reproducible.
	Seed uint64
	// Window overrides the liveness window (0 = class default).
	Window uint64
	// Precision is the target Wilson half-width every per-stratum
	// outcome rate must reach (default 0.05).
	Precision float64
	// Confidence is the two-sided confidence level of the intervals
	// (default 0.95).
	Confidence float64
	// RoundSize is the number of trials allocated per adaptive round
	// after the bootstrap (default 8 per stratum).
	RoundSize int
	// MaxTrials caps the total allocation (default: the fixed-budget
	// equivalent, FixedBudget(Precision, Confidence, strata) — the
	// planner never spends more than the non-adaptive design would).
	MaxTrials int
}

// minPerStratum is the bootstrap allocation that seeds every stratum's
// estimate in round 0.
const minPerStratum = 8

// WithDefaults fills the zero knobs with the planner defaults for a
// campaign over the given number of strata — the configuration the
// planner then runs, and the one request validation bounds.
func (cfg *AdaptiveConfig) WithDefaults(strata int) {
	if cfg.Precision <= 0 {
		cfg.Precision = 0.05
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		cfg.Confidence = 0.95
	}
	if cfg.RoundSize <= 0 {
		cfg.RoundSize = 8 * strata
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = FixedBudget(cfg.Precision, cfg.Confidence, strata)
	}
}

// FixedBudget is the per-campaign trial count a fixed (outcome-blind)
// design must commit to guarantee every stratum rate reaches the
// target half-width: the worst-case Wilson sample size per stratum
// times the number of strata. The adaptive planner's savings are
// measured against this number.
func FixedBudget(precision, confidence float64, strata int) int {
	return strata * stats.WilsonFixedN(precision, confidence)
}

// adaptiveStratum is one stratum's running state. Each stratum owns a
// deterministic RNG stream (split from the base seed in stratum
// order), so how many plans OTHER strata drew in earlier rounds never
// changes this stratum's draw sequence — allocation and plan content
// are decoupled, which keeps resumed and re-planned campaigns on the
// identical trial set.
type adaptiveStratum struct {
	site   stratumSite
	rng    *stats.RNG
	counts [fault.NumOutcomes]int
	n      int
}

// Adaptive allocates rounds to the strata whose outcome-rate
// confidence intervals are widest, and stops once every stratum's
// rates are within Precision at Confidence (or MaxTrials is spent).
// Round 0 bootstraps every stratum with minPerStratum trials; each
// later round splits RoundSize trials across the unfinished strata
// proportionally to their current half-widths (largest-remainder
// rounding, ties to the lower stratum index).
type Adaptive struct {
	cfg         AdaptiveConfig
	strata      []adaptiveStratum
	round       int
	next        int // plan index of the next round's Lo
	outstanding bool
	done        bool
}

// NewAdaptive sizes the strata from the golden run's geometry and
// splits the per-stratum RNG streams from cfg.Seed.
func NewAdaptive(golden *fault.GoldenRun, cfg AdaptiveConfig) (*Adaptive, error) {
	sites := strataFor(golden, cfg.Class, cfg.Region)
	if len(sites) == 0 {
		return nil, fault.ErrNoTaps
	}
	cfg.WithDefaults(len(sites))
	a := &Adaptive{cfg: cfg, strata: make([]adaptiveStratum, len(sites))}
	base := stats.NewRNG(cfg.Seed)
	for i, s := range sites {
		a.strata[i] = adaptiveStratum{site: s, rng: base.Split()}
	}
	return a, nil
}

// Config returns the planner's effective (defaulted) configuration.
func (a *Adaptive) Config() AdaptiveConfig { return a.cfg }

// halfWidth is the stratum's convergence measure: the widest Wilson
// half-width across the four outcome rates (1 before any trial).
func (a *Adaptive) halfWidth(s *adaptiveStratum) float64 {
	if s.n == 0 {
		return 1
	}
	hw := 0.0
	for o := 0; o < int(fault.NumOutcomes); o++ {
		if w := stats.WilsonHalfWidth(s.counts[o], s.n, a.cfg.Confidence); w > hw {
			hw = w
		}
	}
	return hw
}

// Total returns the number of trials allocated so far.
func (a *Adaptive) Total() int { return a.next }

// Rounds returns the number of rounds emitted so far.
func (a *Adaptive) Rounds() int { return a.round }

// Converged reports whether every stratum reached the target
// half-width.
func (a *Adaptive) Converged() bool {
	for i := range a.strata {
		if a.halfWidth(&a.strata[i]) > a.cfg.Precision {
			return false
		}
	}
	return true
}

// Next emits the next round, or ok=false when every stratum has
// converged or the budget is spent.
func (a *Adaptive) Next() (Round, bool) {
	if a.outstanding {
		panic("plan: Adaptive.Next before Observe of the previous round")
	}
	if a.done {
		return Round{}, false
	}
	var alloc []int
	if a.round == 0 {
		alloc = make([]int, len(a.strata))
		if full := minPerStratum * len(a.strata); full > a.cfg.MaxTrials {
			// An explicit cap below the full bootstrap still binds:
			// spread it evenly, remainder to the lower stratum indices.
			base, rem := a.cfg.MaxTrials/len(a.strata), a.cfg.MaxTrials%len(a.strata)
			for i := range alloc {
				alloc[i] = base
				if i < rem {
					alloc[i]++
				}
			}
		} else {
			for i := range alloc {
				alloc[i] = minPerStratum
			}
		}
	} else {
		alloc = a.allocate()
		if alloc == nil {
			a.done = true
			return Round{}, false
		}
	}
	r := Round{Index: a.round, Lo: a.next}
	window := fault.WindowFor(a.cfg.Class, a.cfg.Window)
	for i := range a.strata {
		s := &a.strata[i]
		lo, hi := s.site.bits.Bounds()
		for t := 0; t < alloc[i]; t++ {
			r.Plans = append(r.Plans, fault.Plan{
				Class:  a.cfg.Class,
				Reg:    s.rng.Intn(fault.NumRegisters),
				Bit:    lo + s.rng.Intn(hi-lo+1),
				Site:   s.rng.Uint64() % s.site.taps,
				Window: window,
				Region: s.site.region,
			})
			r.Strata = append(r.Strata, i)
		}
	}
	a.outstanding = true
	return r, true
}

// allocate splits the next round's budget across unfinished strata
// proportionally to half-width. Returns nil when allocation is
// complete (converged or budget exhausted).
func (a *Adaptive) allocate() []int {
	widths := make([]float64, len(a.strata))
	total := 0.0
	unfinished := 0
	for i := range a.strata {
		hw := a.halfWidth(&a.strata[i])
		if hw > a.cfg.Precision {
			widths[i] = hw
			total += hw
			unfinished++
		}
	}
	if unfinished == 0 || a.next >= a.cfg.MaxTrials {
		return nil
	}
	budget := a.cfg.RoundSize
	if rem := a.cfg.MaxTrials - a.next; budget > rem {
		budget = rem
	}
	alloc := make([]int, len(a.strata))
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, 0, unfinished)
	assigned := 0
	for i, w := range widths {
		if w == 0 {
			continue
		}
		exact := float64(budget) * w / total
		alloc[i] = int(exact)
		assigned += alloc[i]
		fracs = append(fracs, frac{idx: i, rem: exact - float64(alloc[i])})
	}
	// Largest remainder, ties to the lower stratum index — fully
	// deterministic.
	for assigned < budget {
		best := -1
		for j := range fracs {
			if best == -1 || fracs[j].rem > fracs[best].rem {
				best = j
			}
		}
		alloc[fracs[best].idx]++
		fracs[best].rem = -1
		assigned++
	}
	return alloc
}

// Observe folds the round's outcomes into the per-stratum estimates.
// The round must be the one Next just emitted.
func (a *Adaptive) Observe(r Round, outcomes []fault.Outcome) {
	if !a.outstanding || r.Index != a.round {
		panic(fmt.Sprintf("plan: Observe of round %d, expected outstanding round %d", r.Index, a.round))
	}
	if len(outcomes) != len(r.Plans) {
		panic(fmt.Sprintf("plan: %d outcomes for %d plans", len(outcomes), len(r.Plans)))
	}
	for i, o := range outcomes {
		s := &a.strata[r.Strata[i]]
		s.counts[o]++
		s.n++
	}
	a.next += len(r.Plans)
	a.round++
	a.outstanding = false
}

// Strata snapshots the per-stratum estimates.
func (a *Adaptive) Strata() []StratumStatus {
	out := make([]StratumStatus, len(a.strata))
	for i := range a.strata {
		s := &a.strata[i]
		hw := a.halfWidth(s)
		out[i] = StratumStatus{
			Region:     s.site.region,
			Bits:       s.site.bits,
			Population: s.site.pop,
			Trials:     s.n,
			Counts:     s.counts,
			HalfWidth:  hw,
			Done:       hw <= a.cfg.Precision,
		}
	}
	return out
}

// Result assembles the population-weighted estimate from the observed
// counts, exactly like the fixed stratified campaign's.
func (a *Adaptive) Result() *fault.StratifiedResult {
	res := &fault.StratifiedResult{Strata: make([]fault.Stratum, len(a.strata))}
	for i := range a.strata {
		s := &a.strata[i]
		res.Strata[i] = fault.Stratum{
			Region:     s.site.region,
			Bits:       s.site.bits,
			Population: s.site.pop,
			Counts:     s.counts,
		}
		res.TotalPopulation += s.site.pop
		res.Trials += s.n
	}
	return res
}
