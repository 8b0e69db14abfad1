package plan

import (
	"errors"
	"reflect"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/stats"
)

func toyGolden(t *testing.T) *fault.GoldenRun {
	t.Helper()
	g, err := fault.CaptureGolden(faulttest.ToyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	return g
}

// The static planner must emit exactly the seeded plan stream as one
// round at plan index 0.
func TestStaticMatchesGeneratePlans(t *testing.T) {
	g := toyGolden(t)
	taps := g.Taps(fault.GPR, fault.RAny)
	window := fault.WindowFor(fault.GPR, 0)
	full := fault.GeneratePlans(7, fault.GPR, fault.RAny, window, 50, taps)

	for _, trials := range []int{50, 20, 1} {
		p, err := NewStatic(g, StaticConfig{
			Class: fault.GPR, Region: fault.RAny, Seed: 7, Trials: trials,
		})
		if err != nil {
			t.Fatalf("NewStatic(trials=%d): %v", trials, err)
		}
		r, ok := p.Next()
		if !ok {
			t.Fatalf("NewStatic(trials=%d): no round", trials)
		}
		if r.Lo != 0 {
			t.Errorf("round Lo = %d, want 0", r.Lo)
		}
		if !reflect.DeepEqual(r.Plans, full[:trials]) {
			t.Errorf("static round (trials=%d) diverges from the GeneratePlans stream", trials)
		}
		if _, ok := p.Next(); ok {
			t.Error("static planner emitted a second round")
		}
	}
}

func TestStaticValidation(t *testing.T) {
	g := toyGolden(t)
	if _, err := NewStatic(g, StaticConfig{Class: fault.GPR, Trials: 0}); err == nil {
		t.Error("expected error for zero trials")
	}
	empty := &fault.GoldenRun{}
	if _, err := NewStatic(empty, StaticConfig{Class: fault.GPR, Trials: 5}); !errors.Is(err, fault.ErrNoTaps) {
		t.Errorf("expected ErrNoTaps, got %v", err)
	}
}

// The stratified planner draws TrialsPerStratum plans per non-empty
// stratum from one seeded stream in stratum order, each plan inside
// its stratum's bit bounds and tap space.
func TestStratifiedRoundShape(t *testing.T) {
	g := toyGolden(t)
	p, err := NewStratified(g, fault.StratifiedConfig{TrialsPerStratum: 10, Class: fault.GPR, Seed: 1})
	if err != nil {
		t.Fatalf("NewStratified: %v", err)
	}
	r, ok := p.Next()
	if !ok {
		t.Fatal("no round")
	}
	if len(r.Plans) != len(r.Strata) {
		t.Fatalf("plans %d vs strata %d", len(r.Plans), len(r.Strata))
	}
	perStratum := map[int]int{}
	for i, pl := range r.Plans {
		s := r.Strata[i]
		perStratum[s]++
		taps := g.Taps(fault.GPR, pl.Region)
		if pl.Site >= taps {
			t.Errorf("plan %d: site %d outside %d taps of %s", i, pl.Site, taps, pl.Region)
		}
	}
	for s, n := range perStratum {
		if n != 10 {
			t.Errorf("stratum %d drew %d plans, want 10", s, n)
		}
	}

	// Bit bounds per stratum follow the bit-group partition.
	outcomes := make([]fault.Outcome, len(r.Plans))
	p.Observe(r, outcomes)
	res := p.Result()
	if res.Trials != len(r.Plans) {
		t.Errorf("result trials %d, want %d", res.Trials, len(r.Plans))
	}
	for i := range res.Strata {
		st := &res.Strata[i]
		lo, hi := st.Bits.Bounds()
		for j, pl := range r.Plans {
			if r.Strata[j] != i {
				continue
			}
			if pl.Bit < lo || pl.Bit > hi {
				t.Errorf("stratum %s/%s drew bit %d outside [%d,%d]", st.Region, st.Bits, pl.Bit, lo, hi)
			}
		}
		if st.Counts[fault.OutcomeMask] == 0 {
			t.Errorf("stratum %d observed no outcomes", i)
		}
	}

	// Deterministic: a fresh planner with the same seed re-emits the
	// identical round.
	p2, _ := NewStratified(g, fault.StratifiedConfig{TrialsPerStratum: 10, Class: fault.GPR, Seed: 1})
	r2, _ := p2.Next()
	if !reflect.DeepEqual(r.Plans, r2.Plans) || !reflect.DeepEqual(r.Strata, r2.Strata) {
		t.Error("stratified round not deterministic in seed")
	}
}

func TestStratifiedNoTaps(t *testing.T) {
	if _, err := NewStratified(&fault.GoldenRun{}, fault.StratifiedConfig{Class: fault.GPR}); !errors.Is(err, fault.ErrNoTaps) {
		t.Errorf("expected ErrNoTaps, got %v", err)
	}
}

// runPlanner drives an adaptive planner against a synthetic outcome
// oracle and returns the concatenated trial set.
func runPlanner(t *testing.T, a *Adaptive, oracle func(fault.Plan) fault.Outcome) []fault.Plan {
	t.Helper()
	var all []fault.Plan
	for rounds := 0; ; rounds++ {
		if rounds > 10000 {
			t.Fatal("planner did not terminate")
		}
		r, ok := a.Next()
		if !ok {
			return all
		}
		if r.Lo != len(all) {
			t.Fatalf("round %d Lo = %d, want %d (rounds must be contiguous)", r.Index, r.Lo, len(all))
		}
		outcomes := make([]fault.Outcome, len(r.Plans))
		for i, p := range r.Plans {
			outcomes[i] = oracle(p)
		}
		all = append(all, r.Plans...)
		a.Observe(r, outcomes)
	}
}

// With a constant oracle every stratum is pure: the planner must
// converge with far fewer trials than the fixed-budget equivalent and
// report every stratum done.
func TestAdaptiveConvergesEarlyOnPureStrata(t *testing.T) {
	g := toyGolden(t)
	a, err := NewAdaptive(g, AdaptiveConfig{Class: fault.GPR, Region: fault.RAny, Seed: 3})
	if err != nil {
		t.Fatalf("NewAdaptive: %v", err)
	}
	all := runPlanner(t, a, func(fault.Plan) fault.Outcome { return fault.OutcomeMask })
	if !a.Converged() {
		t.Fatal("planner did not converge")
	}
	strata := a.Strata()
	fixed := FixedBudget(a.Config().Precision, a.Config().Confidence, len(strata))
	if len(all)*5 > fixed {
		t.Errorf("adaptive spent %d trials, fixed budget %d — want >=5x savings", len(all), fixed)
	}
	for _, s := range strata {
		if !s.Done {
			t.Errorf("stratum %s/%s not done (half-width %.4f)", s.Region, s.Bits, s.HalfWidth)
		}
		if s.HalfWidth > a.Config().Precision {
			t.Errorf("stratum %s/%s half-width %.4f > precision", s.Region, s.Bits, s.HalfWidth)
		}
	}
	if a.Total() != len(all) {
		t.Errorf("Total() = %d, want %d", a.Total(), len(all))
	}
}

// Identical seeds and identical outcomes must reproduce the identical
// trial sequence; a different seed must not.
func TestAdaptiveDeterministic(t *testing.T) {
	g := toyGolden(t)
	oracle := func(p fault.Plan) fault.Outcome {
		// Outcome depends only on the plan — as real trials do.
		if p.Bit >= 32 {
			return fault.OutcomeCrash
		}
		if p.Site%3 == 0 {
			return fault.OutcomeSDC
		}
		return fault.OutcomeMask
	}
	mk := func(seed uint64) []fault.Plan {
		a, err := NewAdaptive(g, AdaptiveConfig{Class: fault.GPR, Seed: seed, Precision: 0.1})
		if err != nil {
			t.Fatalf("NewAdaptive: %v", err)
		}
		return runPlanner(t, a, oracle)
	}
	one, two := mk(11), mk(11)
	if !reflect.DeepEqual(one, two) {
		t.Error("same seed produced different trial sets")
	}
	if other := mk(12); reflect.DeepEqual(one, other) {
		t.Error("different seed produced the same trial set")
	}
}

// Mixed-rate strata (p near 1/2) need the most trials; the planner
// must route later rounds toward them, not the pure strata.
func TestAdaptiveAllocatesToWidestStrata(t *testing.T) {
	g := toyGolden(t)
	a, err := NewAdaptive(g, AdaptiveConfig{Class: fault.GPR, Seed: 5, Precision: 0.08})
	if err != nil {
		t.Fatalf("NewAdaptive: %v", err)
	}
	// Low-bit strata alternate outcomes (p ~ 1/2); others are pure.
	flip := false
	oracle := func(p fault.Plan) fault.Outcome {
		if p.Bit < 8 {
			flip = !flip
			if flip {
				return fault.OutcomeSDC
			}
		}
		return fault.OutcomeMask
	}
	runPlanner(t, a, oracle)
	var mixedMax, pureMax int
	for _, s := range a.Strata() {
		if s.Bits == fault.BitsLow {
			if s.Trials > mixedMax {
				mixedMax = s.Trials
			}
		} else if s.Trials > pureMax {
			pureMax = s.Trials
		}
	}
	if mixedMax <= pureMax {
		t.Errorf("mixed strata got %d trials, pure strata %d — allocation ignored interval width", mixedMax, pureMax)
	}
}

// The budget cap must hold even when strata never converge.
func TestAdaptiveRespectsMaxTrials(t *testing.T) {
	g := toyGolden(t)
	a, err := NewAdaptive(g, AdaptiveConfig{
		Class: fault.GPR, Seed: 9, Precision: 0.001, MaxTrials: 200, RoundSize: 64,
	})
	if err != nil {
		t.Fatalf("NewAdaptive: %v", err)
	}
	flip := false
	all := runPlanner(t, a, func(fault.Plan) fault.Outcome {
		flip = !flip
		if flip {
			return fault.OutcomeSDC
		}
		return fault.OutcomeMask
	})
	if a.Converged() {
		t.Error("planner cannot converge at precision 0.001 within 200 trials")
	}
	if len(all) > 200 {
		t.Errorf("planner spent %d trials, cap 200", len(all))
	}
}

// A cap below the full bootstrap binds from round 0: the bootstrap is
// spread evenly with the remainder on the lower stratum indices.
func TestAdaptiveCapBelowBootstrap(t *testing.T) {
	g := toyGolden(t)
	a, err := NewAdaptive(g, AdaptiveConfig{Class: fault.GPR, Seed: 9, MaxTrials: 5})
	if err != nil {
		t.Fatalf("NewAdaptive: %v", err)
	}
	all := runPlanner(t, a, func(fault.Plan) fault.Outcome { return fault.OutcomeMask })
	if len(all) != 5 {
		t.Errorf("planner spent %d trials, cap 5", len(all))
	}
	strata := a.Strata()
	for i, s := range strata {
		want := 5 / len(strata)
		if i < 5%len(strata) {
			want++
		}
		if s.Trials != want {
			t.Errorf("stratum %d got %d bootstrap trials, want %d", i, s.Trials, want)
		}
	}
}

// Per-stratum RNG streams: the plans a stratum draws depend only on
// the seed and how many trials THAT stratum has drawn — not on how
// the planner interleaved other strata. Two planners with different
// precisions (hence different allocation paths) must draw each
// stratum's plans as prefixes of the same stream.
func TestAdaptiveStratumStreamsIndependent(t *testing.T) {
	g := toyGolden(t)
	collect := func(precision float64) map[string][]fault.Plan {
		a, err := NewAdaptive(g, AdaptiveConfig{Class: fault.GPR, Seed: 21, Precision: precision})
		if err != nil {
			t.Fatalf("NewAdaptive: %v", err)
		}
		streams := map[string][]fault.Plan{}
		for {
			r, ok := a.Next()
			if !ok {
				return streams
			}
			outcomes := make([]fault.Outcome, len(r.Plans))
			for i, p := range r.Plans {
				key := p.Region.String() + "/" + mustGroup(p.Bit).String()
				streams[key] = append(streams[key], p)
				if p.Site%2 == 0 {
					outcomes[i] = fault.OutcomeSDC
				}
			}
			a.Observe(r, outcomes)
		}
	}
	loose, tight := collect(0.2), collect(0.1)
	for key, ls := range loose {
		ts := tight[key]
		n := len(ls)
		if len(ts) < n {
			n = len(ts)
		}
		if !reflect.DeepEqual(ls[:n], ts[:n]) {
			t.Errorf("stratum %s: plan stream diverges between allocation paths", key)
		}
	}
}

func mustGroup(bit int) fault.BitGroup {
	for bg := fault.BitGroup(0); bg < fault.NumBitGroups; bg++ {
		lo, hi := bg.Bounds()
		if bit >= lo && bit <= hi {
			return bg
		}
	}
	panic("bit outside every group")
}

func TestAdaptiveNoTaps(t *testing.T) {
	if _, err := NewAdaptive(&fault.GoldenRun{}, AdaptiveConfig{Class: fault.GPR}); !errors.Is(err, fault.ErrNoTaps) {
		t.Errorf("expected ErrNoTaps, got %v", err)
	}
}

func TestFixedBudgetMatchesWilsonFixedN(t *testing.T) {
	if got, want := FixedBudget(0.05, 0.95, 6), 6*stats.WilsonFixedN(0.05, 0.95); got != want {
		t.Errorf("FixedBudget = %d, want %d", got, want)
	}
}
