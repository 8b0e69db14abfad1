package campaign

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// ---- stratified campaigns through the planner seam ----
// (These drivers moved here from internal/fault when the private
// stratified loop was re-routed through plan.Stratified.)

func TestStratifiedCampaignStructure(t *testing.T) {
	var runner Runner
	res, err := runner.RunStratified(context.Background(), NewWorkload("toy", "", faulttest.ToyApp), fault.StratifiedConfig{
		TrialsPerStratum: 10,
		Class:            fault.GPR,
		Seed:             1,
		Workers:          2,
	})
	if err != nil {
		t.Fatalf("RunStratified: %v", err)
	}
	if len(res.Strata) == 0 {
		t.Fatal("no strata")
	}
	if res.Trials != len(res.Strata)*10 {
		t.Errorf("trials = %d, want %d", res.Trials, len(res.Strata)*10)
	}
	var popSum uint64
	for i := range res.Strata {
		s := &res.Strata[i]
		popSum += s.Population
		total := 0
		for _, c := range s.Counts {
			total += c
		}
		if total != 10 {
			t.Errorf("stratum %s/%s sampled %d, want 10", s.Region, s.Bits, total)
		}
	}
	if popSum != res.TotalPopulation {
		t.Error("population sum mismatch")
	}
	// Weighted rates are a convex combination: they sum to 1.
	var sum float64
	for _, r := range res.WeightedRates() {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weighted rates sum to %v", sum)
	}
}

func TestStratifiedMatchesUniformEstimate(t *testing.T) {
	// The Relyzer-style weighted estimate should agree with a plain
	// uniform campaign on the same app within statistical noise.
	var runner Runner
	uniform, err := runner.Run(context.Background(), Spec{
		Workload: NewWorkload("toy", "", faulttest.ToyApp),
		Class:    fault.GPR, Region: fault.RAny, Trials: 600, Seed: 5, Workers: 2,
	})
	if err != nil {
		t.Fatalf("uniform campaign: %v", err)
	}
	strat, err := runner.RunStratified(context.Background(), NewWorkload("toy", "", faulttest.ToyApp), fault.StratifiedConfig{
		TrialsPerStratum: 60, Class: fault.GPR, Seed: 5, Workers: 2,
	})
	if err != nil {
		t.Fatalf("stratified campaign: %v", err)
	}
	u := uniform.Fault.Rates()
	s := strat.WeightedRates()
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		if d := math.Abs(u[o] - s[o]); d > 0.12 {
			t.Errorf("%s: uniform %.3f vs stratified %.3f (diff %.3f)", o, u[o], s[o], d)
		}
	}
}

func TestStratifiedDeterministicInSeed(t *testing.T) {
	var runner Runner
	cfg := fault.StratifiedConfig{TrialsPerStratum: 8, Class: fault.GPR, Seed: 17, Workers: 4}
	one, err := runner.RunStratified(context.Background(), NewWorkload("toy", "", faulttest.ToyApp), cfg)
	if err != nil {
		t.Fatalf("RunStratified: %v", err)
	}
	cfg.Workers = 1
	two, err := runner.RunStratified(context.Background(), NewWorkload("toy", "", faulttest.ToyApp), cfg)
	if err != nil {
		t.Fatalf("RunStratified: %v", err)
	}
	if !reflect.DeepEqual(one, two) {
		t.Error("stratified results differ across worker counts")
	}
}

func TestStratifiedNoTaps(t *testing.T) {
	var runner Runner
	app := func(m *fault.Machine) ([]byte, error) { return []byte{1}, nil }
	if _, err := runner.RunStratified(context.Background(), NewWorkload("flat", "", app), fault.StratifiedConfig{
		TrialsPerStratum: 5, Class: fault.GPR,
	}); !errors.Is(err, fault.ErrNoTaps) {
		t.Errorf("expected ErrNoTaps, got %v", err)
	}
}

func TestStratifiedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runner Runner
	if _, err := runner.RunStratified(ctx, NewWorkload("toy", "", faulttest.ToyApp), fault.StratifiedConfig{
		TrialsPerStratum: 1000, Class: fault.GPR, Seed: 1,
	}); err == nil {
		t.Error("expected cancellation error")
	}
}

func TestStratifiedGoldenFailure(t *testing.T) {
	var runner Runner
	app := func(m *fault.Machine) ([]byte, error) { return nil, context.Canceled }
	if _, err := runner.RunStratified(context.Background(), NewWorkload("bad", "", app), fault.StratifiedConfig{
		TrialsPerStratum: 1, Class: fault.GPR,
	}); err == nil {
		t.Error("expected golden failure error")
	}
}

// ---- adaptive campaigns ----

func adaptiveSpec() Spec {
	return Spec{
		Workload: NewWorkload("toy", "", faulttest.ToyApp),
		Class:    fault.FPR,
		Region:   fault.RAny,
		Seed:     23,
		Workers:  2,
		Adaptive: &AdaptiveSpec{Precision: 0.05, Confidence: 0.95},
	}
}

// The acceptance demo: at the default precision/confidence the
// adaptive campaign must converge on every stratum with at least 5x
// fewer trials than the fixed-budget design needs to guarantee the
// same precision blind.
func TestAdaptiveCampaignSavings(t *testing.T) {
	var runner Runner
	res, err := runner.RunAdaptive(context.Background(), adaptiveSpec(), 1)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	if !res.Converged {
		t.Fatalf("adaptive campaign did not converge in %d trials", res.Trials)
	}
	for _, s := range res.Strata {
		if !s.Done {
			t.Errorf("stratum %s/%s not at target (half-width %.4f)", s.Region, s.Bits, s.HalfWidth)
		}
	}
	if res.Trials*5 > res.FixedBudget {
		t.Errorf("adaptive spent %d trials vs fixed budget %d — want >=5x savings", res.Trials, res.FixedBudget)
	}
	if res.Trials != len(res.Records) {
		t.Errorf("Trials %d != len(Records) %d", res.Trials, len(res.Records))
	}
	if res.Executed != res.Trials {
		t.Errorf("fresh run: Executed %d != Trials %d", res.Executed, res.Trials)
	}
	if res.Stratified == nil || res.Stratified.Trials != res.Trials {
		t.Error("weighted stratified view missing or inconsistent")
	}
}

// Determinism across execution strategies: the observed trial set
// (records, in plan order) is identical for every worker count and
// round-shard count at equal seeds, and identical again when a prefix
// of the journal is replayed through Resume.
func TestAdaptiveCampaignDeterministicAcrossExecution(t *testing.T) {
	var runner Runner
	base, err := runner.RunAdaptive(context.Background(), adaptiveSpec(), 1)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	if len(base.Records) == 0 {
		t.Fatal("no records")
	}
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 5} {
			spec := adaptiveSpec()
			spec.Workers = workers
			res, err := runner.RunAdaptive(context.Background(), spec, shards)
			if err != nil {
				t.Fatalf("RunAdaptive(workers=%d, shards=%d): %v", workers, shards, err)
			}
			if !reflect.DeepEqual(res.Records, base.Records) {
				t.Errorf("workers=%d shards=%d: trial records diverge from baseline", workers, shards)
			}
			if res.Trials != base.Trials || res.Rounds != base.Rounds || res.Converged != base.Converged {
				t.Errorf("workers=%d shards=%d: aggregate drift (trials %d vs %d, rounds %d vs %d)",
					workers, shards, res.Trials, base.Trials, res.Rounds, base.Rounds)
			}
		}
	}

	// Journal resume: replay a prefix of the baseline's records; the
	// campaign must land on the identical trial set while executing
	// only the remainder.
	for _, cut := range []int{len(base.Records) / 3, len(base.Records) / 2, len(base.Records)} {
		spec := adaptiveSpec()
		spec.Resume = append([]fault.TrialRecord(nil), base.Records[:cut]...)
		res, err := runner.RunAdaptive(context.Background(), spec, 5)
		if err != nil {
			t.Fatalf("resumed RunAdaptive(cut=%d): %v", cut, err)
		}
		if !reflect.DeepEqual(res.Records, base.Records) {
			t.Errorf("cut=%d: resumed records diverge from baseline", cut)
		}
		if res.Executed != base.Trials-cut {
			t.Errorf("cut=%d: executed %d trials, want %d", cut, res.Executed, base.Trials-cut)
		}
	}
}

// OnRound observes every round with a monotone trial count; OnTrial
// streams a record for every executed trial.
func TestAdaptiveCampaignHooks(t *testing.T) {
	var rounds []RoundStatus
	var streamed []fault.TrialRecord
	spec := adaptiveSpec()
	spec.Adaptive.OnRound = func(st RoundStatus) { rounds = append(rounds, st) }
	spec.OnTrial = func(rec fault.TrialRecord) { streamed = append(streamed, rec) }
	var runner Runner
	res, err := runner.RunAdaptive(context.Background(), spec, 2)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	if len(rounds) != res.Rounds {
		t.Errorf("OnRound fired %d times for %d rounds", len(rounds), res.Rounds)
	}
	prev := 0
	for i, st := range rounds {
		if st.Round != i {
			t.Errorf("round %d reported index %d", i, st.Round)
		}
		if st.Trials <= prev {
			t.Errorf("round %d: cumulative trials %d not increasing", i, st.Trials)
		}
		prev = st.Trials
	}
	if last := rounds[len(rounds)-1]; last.StrataDone != last.Strata {
		t.Errorf("final round reports %d/%d strata done", last.StrataDone, last.Strata)
	}
	if len(streamed) != res.Executed {
		t.Errorf("OnTrial streamed %d records for %d executed trials", len(streamed), res.Executed)
	}
	// Streamed records cover the same plan indices as the result set.
	seen := map[int]bool{}
	for _, rec := range streamed {
		seen[rec.Index] = true
	}
	for _, rec := range res.Records {
		if !seen[rec.Index] {
			t.Errorf("record %d missing from OnTrial stream", rec.Index)
		}
	}
}

func TestAdaptiveCampaignValidation(t *testing.T) {
	var runner Runner
	spec := adaptiveSpec()
	spec.Adaptive = nil
	if _, err := runner.RunAdaptive(context.Background(), spec, 1); err == nil {
		t.Error("expected error without Adaptive config")
	}
	spec = adaptiveSpec()
	spec.Workload = Workload{}
	if _, err := runner.RunAdaptive(context.Background(), spec, 1); err == nil {
		t.Error("expected error without workload")
	}
}

func TestAdaptiveCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runner Runner
	if _, err := runner.RunAdaptive(ctx, adaptiveSpec(), 1); err == nil {
		t.Error("expected cancellation error")
	}
}

// TestAdaptiveDeterministicCompositeBoundaries extends the determinism
// promise to the staged VS workload, whose warp-region trials resume
// from and converge at the composite's interior boundaries: the
// adaptive trial set is identical across worker counts and round-shard
// counts, and identical again on a checkpoint-free golden, where every
// trial runs in full.
func TestAdaptiveDeterministicCompositeBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("full-execution VS campaign is not -short")
	}
	p := virat.TestScale()
	p.Frames = 8
	frames := virat.Input2(p).Frames()
	mk := func(workers int) Spec {
		return Spec{
			Workload: VSApp(vs.DefaultConfig(vs.AlgVS), frames, "det", ""),
			Class:    fault.GPR,
			Region:   fault.RWarpInvoker,
			Seed:     5,
			Workers:  workers,
			Adaptive: &AdaptiveSpec{Precision: 0.1, Confidence: 0.9},
		}
	}
	var runner Runner
	base, err := runner.RunAdaptive(context.Background(), mk(1), 1)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	if len(base.Records) == 0 {
		t.Fatal("no records")
	}
	full := mk(2)
	if full.Golden, err = fault.CaptureGolden(full.Workload.App); err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	for label, run := range map[string]func() (*AdaptiveResult, error){
		"workers=2 shards=3": func() (*AdaptiveResult, error) { return runner.RunAdaptive(context.Background(), mk(2), 3) },
		"full execution":     func() (*AdaptiveResult, error) { return runner.RunAdaptive(context.Background(), full, 1) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(res.Records, base.Records) || res.Rounds != base.Rounds {
			t.Errorf("%s: trial records diverge from the baseline (%d vs %d trials, %d vs %d rounds)",
				label, len(res.Records), len(base.Records), res.Rounds, base.Rounds)
		}
	}
}
