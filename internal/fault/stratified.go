package fault

import "fmt"

// The paper leaves "more comprehensive and higher precision techniques
// such as Relyzer" to future work (§V-A). Relyzer's key idea is fault-
// site equivalence: many dynamic fault sites behave alike, so
// injecting into a few representatives of each equivalence class and
// weighting by class population estimates full-coverage resiliency at
// a fraction of the cost. This file defines the stratification model:
// the site space is stratified by (function region, bit group) — the
// two strongest behavioral predictors in this workload — and each
// stratum is sampled independently. The drivers live behind the
// planner seam: plan.Stratified reproduces the fixed per-stratum
// draw, plan.Adaptive reallocates rounds by interval width, and
// campaign.Runner executes either through the same trial executor as
// every other campaign.

// BitGroup partitions register bit positions by architectural effect:
// low bits perturb values slightly, middle bits produce large value
// and address errors, high bits flip signs and magnitudes.
type BitGroup uint8

// Bit groups.
const (
	BitsLow  BitGroup = iota // bits 0-7
	BitsMid                  // bits 8-31
	BitsHigh                 // bits 32-63
	NumBitGroups
)

// String implements fmt.Stringer.
func (b BitGroup) String() string {
	switch b {
	case BitsLow:
		return "bits0-7"
	case BitsMid:
		return "bits8-31"
	case BitsHigh:
		return "bits32-63"
	default:
		return fmt.Sprintf("BitGroup(%d)", uint8(b))
	}
}

// Bounds returns the inclusive bit range of the group.
func (b BitGroup) Bounds() (int, int) {
	switch b {
	case BitsLow:
		return 0, 7
	case BitsMid:
		return 8, 31
	default:
		return 32, 63
	}
}

// Width returns the number of bit positions in the group.
func (b BitGroup) Width() int {
	lo, hi := b.Bounds()
	return hi - lo + 1
}

// Stratum is one fault-site equivalence class.
type Stratum struct {
	Region Region
	Bits   BitGroup
	// Population is the stratum's share of the total site space
	// (region taps × bit positions).
	Population uint64
	// Counts are the sampled outcome counts within the stratum.
	Counts [NumOutcomes]int
}

// Rates returns the stratum's outcome rates.
func (s *Stratum) Rates() [NumOutcomes]float64 {
	total := 0
	for _, c := range s.Counts {
		total += c
	}
	var out [NumOutcomes]float64
	if total == 0 {
		return out
	}
	for o := range s.Counts {
		out[o] = float64(s.Counts[o]) / float64(total)
	}
	return out
}

// StratifiedConfig parameterizes an equivalence-class campaign.
type StratifiedConfig struct {
	// TrialsPerStratum is the number of injections sampled from each
	// non-empty stratum (default 20).
	TrialsPerStratum int
	// Class selects the register file.
	Class Class
	// Seed draws the per-stratum samples, Workers caps the session's
	// worker pool and Window overrides the liveness window (0 = class
	// default).
	Seed    uint64
	Workers int
	Window  uint64
}

// StratifiedResult aggregates an equivalence-class campaign.
type StratifiedResult struct {
	Strata []Stratum
	// TotalPopulation is the size of the whole weighted site space.
	TotalPopulation uint64
	// Trials is the total number of injections performed.
	Trials int
}

// WeightedRates estimates the whole-program outcome rates by weighting
// each stratum's sampled rates with its population share — the
// Relyzer-style full-coverage estimate.
func (r *StratifiedResult) WeightedRates() [NumOutcomes]float64 {
	var out [NumOutcomes]float64
	if r.TotalPopulation == 0 {
		return out
	}
	for i := range r.Strata {
		s := &r.Strata[i]
		rates := s.Rates()
		w := float64(s.Population) / float64(r.TotalPopulation)
		for o := range out {
			out[o] += w * rates[o]
		}
	}
	return out
}
