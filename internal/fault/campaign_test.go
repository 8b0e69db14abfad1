package fault_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/stats"
)

// runCampaign is the one-shot seed-driven campaign the package tests
// drive the executor with, shaped like campaign.Runner.Run: capture the
// golden run of sc.App, open a session with sc, draw n plans from seed
// with GeneratePlans (the stream plan.Static emits) and execute them as
// one window.
func runCampaign(ctx context.Context, sc fault.SessionConfig, n int, seed uint64) (*fault.Result, error) {
	golden, err := fault.CaptureGolden(sc.App)
	if err != nil {
		return nil, err
	}
	sc.Golden = golden
	s, err := fault.NewSession(sc)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	plans := fault.GeneratePlans(seed, sc.Class, sc.Region, fault.WindowFor(sc.Class, 0), n, golden.Taps(sc.Class, sc.Region))
	return s.Run(ctx, fault.Config{Plans: plans})
}

func TestCampaignGoldenIsMaskFree(t *testing.T) {
	// A four-tap app: every trial must still be classified exactly
	// once.
	app := func(m *fault.Machine) ([]byte, error) {
		out := make([]byte, 4)
		for i := 0; i < 4; i++ {
			out[i] = byte(m.Idx(i))
		}
		return out, nil
	}
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: app, Class: fault.GPR, Region: fault.RAny, Workers: 2,
	}, 50, 1)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 50 {
		t.Errorf("total trials = %d", total)
	}
	// With only 4 GPR taps of tiny values, most flips are masked or
	// produce small index changes; just check classification is
	// exhaustive and rates sum to 1.
	var sum float64
	for _, r := range res.Rates() {
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("rates sum to %v", sum)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := fault.SessionConfig{App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny, Workers: 4}
	a, err := runCampaign(context.Background(), cfg, 200, 42)
	if err != nil {
		t.Fatalf("campaign A: %v", err)
	}
	cfg.Workers = 1
	b, err := runCampaign(context.Background(), cfg, 200, 42)
	if err != nil {
		t.Fatalf("campaign B: %v", err)
	}
	if a.Counts != b.Counts {
		t.Errorf("outcome counts differ across worker counts: %v vs %v", a.Counts, b.Counts)
	}
	for i := range a.Trials {
		if a.Trials[i].Outcome != b.Trials[i].Outcome {
			t.Fatalf("trial %d outcome differs", i)
		}
	}
}

func TestCampaignProducesAllOutcomeMachinery(t *testing.T) {
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny, Workers: 4,
	}, 400, 7)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.TotalTaps == 0 || res.GoldenSteps == 0 {
		t.Error("golden run did not count taps")
	}
	if res.Counts[fault.OutcomeMask] == 0 {
		t.Error("expected some masked trials")
	}
	if res.Counts[fault.OutcomeCrash] == 0 {
		t.Error("expected some crashes from corrupted indices")
	}
	if res.RegHist.Total() != 400 || res.BitHist.Total() != 400 {
		t.Error("coverage histograms incomplete")
	}
	if res.Curve.Total() != 400 {
		t.Error("rate curve incomplete")
	}
	if len(res.Curve.Checkpoints) == 0 {
		t.Error("no rate curve checkpoints")
	}
}

func TestCampaignFPRMostlyMasked(t *testing.T) {
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: faulttest.ToyApp, Class: fault.FPR, Region: fault.RAny, Workers: 4,
	}, 300, 9)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rate := res.Rate(fault.OutcomeMask); rate < 0.90 {
		t.Errorf("FPR mask rate = %v, want >= 0.90 (small liveness window)", rate)
	}
}

func TestCampaignKeepsSDCOutputs(t *testing.T) {
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny, Workers: 4,
		KeepSDCOutputs: true,
	}, 500, 3)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	outs := res.SDCOutputs()
	if len(outs) != res.Counts[fault.OutcomeSDC] {
		t.Errorf("kept %d SDC outputs, want %d", len(outs), res.Counts[fault.OutcomeSDC])
	}
	for _, o := range outs {
		if bytes.Equal(o, res.GoldenOutput) {
			t.Error("SDC output equals golden output")
		}
	}
}

func TestCampaignHangDetection(t *testing.T) {
	// An app whose loop bound is tapped every iteration: a high-bit
	// corruption inflates the bound and the step budget
	// (DefaultStepFactor golden runs) trips.
	app := func(m *fault.Machine) ([]byte, error) {
		sum := 0
		n := 1000
		for i := 0; i < n; i++ {
			n = m.Cnt(n) // re-tap the bound each iteration
			sum += m.Idx(i) & 1
		}
		return []byte{byte(sum)}, nil
	}
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: app, Class: fault.GPR, Region: fault.RAny, Workers: 4,
	}, 300, 11)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.Counts[fault.OutcomeHang] == 0 {
		t.Error("expected hang outcomes from corrupted loop bounds")
	}
}

// TestConvergedTrialHangs checks the convergence guard's hang
// arithmetic on faulttest.HangToy: flips of the spin's trip count
// reach the "work" boundary resolved and with the golden state, and
// each must classify as the full run does — a Mask when the golden
// suffix fits the remaining step budget, a Hang when it would overrun
// it (bit HangToyBit), even though the trial converged first.
func TestConvergedTrialHangs(t *testing.T) {
	toy := faulttest.HangToy{}
	golden, err := fault.CaptureGoldenStaged(toy)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(bit int) fault.Plan {
		return fault.Plan{Class: fault.GPR, Reg: int(stats.Hash64(0) % fault.NumRegisters), Bit: bit,
			Window: fault.DefaultGPRWindow, Region: fault.RAny}
	}
	plans := []fault.Plan{plan(6), plan(7), plan(faulttest.HangToyBit), plan(faulttest.HangToyBit + 1)}
	sess, err := fault.NewSession(fault.SessionConfig{
		App: toy.App, Staged: toy, Golden: golden, Workers: 1, Class: fault.GPR, Region: fault.RAny,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run(context.Background(), fault.Config{Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		got, want := res.Trials[i], fault.RunTrialFull(toy.App, golden, p)
		if got.Outcome != want.Outcome || got.Landed != want.Landed {
			t.Errorf("bit %d: %v (landed=%v), full run %v (landed=%v)", p.Bit, got.Outcome, got.Landed, want.Outcome, want.Landed)
		}
	}
	if got := res.Trials[2].Outcome; got != fault.OutcomeHang {
		t.Errorf("bit %d: %v, want Hang", faulttest.HangToyBit, got)
	}
	if res.Sched.Converged < 3 {
		t.Errorf("%d trials converged, want the three that reach the work boundary", res.Sched.Converged)
	}
}

func TestCampaignCrashAbort(t *testing.T) {
	// An app that validates a tapped value and returns an error when it
	// is corrupted — AFI's "abort signal" crash flavor.
	app := func(m *fault.Machine) ([]byte, error) {
		for i := 0; i < 50; i++ {
			v := m.Idx(7)
			if v != 7 {
				return nil, fmt.Errorf("toy: constraint violated: %d", v)
			}
		}
		return []byte{1}, nil
	}
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: app, Class: fault.GPR, Region: fault.RAny, Workers: 2,
	}, 200, 13)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.CrashCounts[fault.CrashAbort] == 0 {
		t.Error("expected abort-class crashes")
	}
	if res.CrashCounts[fault.CrashAbort] != res.Counts[fault.OutcomeCrash] {
		t.Error("all crashes here should be aborts")
	}
}

func TestCampaignRegionScoped(t *testing.T) {
	app := func(m *fault.Machine) ([]byte, error) {
		var out []byte
		for i := 0; i < 20; i++ {
			out = append(out, byte(m.Idx(i)))
		}
		restore := m.Enter(fault.RRemapBilinear)
		for i := 0; i < 20; i++ {
			out = append(out, m.Pix(uint8(i)))
		}
		restore()
		return out, nil
	}
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: app, Class: fault.GPR, Region: fault.RRemapBilinear, Workers: 2,
	}, 100, 5)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.TotalTaps != 20 {
		t.Errorf("region tap space = %d, want 20", res.TotalTaps)
	}
	// Region-scoped injections into Pix taps can only mask or SDC —
	// never crash (no indices are tapped there).
	if res.Counts[fault.OutcomeCrash] != 0 {
		t.Errorf("region-scoped pixel faults crashed %d times", res.Counts[fault.OutcomeCrash])
	}
}

func TestCampaignErrors(t *testing.T) {
	okApp := func(m *fault.Machine) ([]byte, error) { m.Idx(1); return []byte{0}, nil }

	if _, err := runCampaign(context.Background(), fault.SessionConfig{App: okApp, Class: fault.GPR, Region: fault.RAny}, 0, 0); err == nil {
		t.Error("expected error for zero trials")
	}

	failing := func(m *fault.Machine) ([]byte, error) { return nil, errors.New("boom") }
	if _, err := runCampaign(context.Background(), fault.SessionConfig{App: failing, Class: fault.GPR, Region: fault.RAny}, 1, 0); err == nil {
		t.Error("expected error for failing golden run")
	}

	noFPR := func(m *fault.Machine) ([]byte, error) { m.Idx(1); return []byte{0}, nil }
	if _, err := runCampaign(context.Background(), fault.SessionConfig{App: noFPR, Class: fault.FPR, Region: fault.RAny}, 1, 0); !errors.Is(err, fault.ErrNoTaps) {
		t.Errorf("expected ErrNoTaps, got %v", err)
	}
}

func TestCampaignContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runCampaign(ctx, fault.SessionConfig{App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny}, 10000, 1)
	if err == nil {
		t.Error("expected cancellation error")
	}
}

func TestCampaignResumeMatchesColdRun(t *testing.T) {
	const trials = 300
	cfg := fault.SessionConfig{App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny, Workers: 4}
	cold, err := runCampaign(context.Background(), cfg, trials, 21)
	if err != nil {
		t.Fatalf("cold campaign: %v", err)
	}
	// Pretend the first half completed before an interruption and
	// resume from its checkpoint records.
	var recs []fault.TrialRecord
	for i := 0; i < trials/2; i++ {
		recs = append(recs, cold.Trials[i].Record(i))
	}
	rcfg := cfg
	rcfg.Resume = recs
	executed := 0
	rcfg.OnTrial = func(rec fault.TrialRecord) { executed++ }
	warm, err := runCampaign(context.Background(), rcfg, trials, 21)
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if warm.Completed != trials {
		t.Errorf("resumed Completed = %d, want %d", warm.Completed, trials)
	}
	if warm.Resumed != len(recs) {
		t.Errorf("resumed Resumed = %d, want %d", warm.Resumed, len(recs))
	}
	if executed != trials-len(recs) {
		t.Errorf("resumed run executed %d trials, want %d", executed, trials-len(recs))
	}
	if warm.Counts != cold.Counts {
		t.Errorf("resumed counts %v differ from cold %v", warm.Counts, cold.Counts)
	}
	if warm.RegHist.ChiSquareUniform() != cold.RegHist.ChiSquareUniform() {
		t.Error("resumed register histogram differs from cold run")
	}
}

// TestCampaignResumeRejectsBadRecords: NewSession validates the resume
// journal once, so a bad record fails the campaign before any trial
// runs. A record past the campaign's plan space is not an error: no
// window reaches it, so it is ignored.
func TestCampaignResumeRejectsBadRecords(t *testing.T) {
	base := fault.SessionConfig{App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny}
	for name, recs := range map[string][]fault.TrialRecord{
		"negative":    {{Index: -1}},
		"bad-outcome": {{Index: 0, Outcome: fault.NumOutcomes}},
		"duplicate":   {{Index: 3}, {Index: 3}},
	} {
		cfg := base
		cfg.Resume = recs
		if _, err := runCampaign(context.Background(), cfg, 10, 1); err == nil {
			t.Errorf("%s: expected resume validation error", name)
		}
	}
	cfg := base
	cfg.Resume = []fault.TrialRecord{{Index: 10, Outcome: fault.OutcomeHang}}
	res, err := runCampaign(context.Background(), cfg, 10, 1)
	if err != nil {
		t.Fatalf("record past the plan space: %v", err)
	}
	if res.Resumed != 0 || res.Completed != 10 || res.Counts[fault.OutcomeHang] != 0 {
		t.Errorf("record past the plan space was folded: Resumed=%d Completed=%d counts=%v",
			res.Resumed, res.Completed, res.Counts)
	}
}

func TestCampaignPartialResultOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter, trials = 40, 5000
	seen := 0
	cfg := fault.SessionConfig{
		App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny, Workers: 2,
		OnTrial: func(fault.TrialRecord) {
			seen++
			if seen == stopAfter {
				cancel()
			}
		},
	}
	res, err := runCampaign(ctx, cfg, trials, 17)
	if err == nil {
		t.Fatal("expected interruption error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("expected partial result on cancellation")
	}
	if res.Completed < stopAfter || res.Completed >= trials {
		t.Errorf("partial Completed = %d, want in [%d,%d)", res.Completed, stopAfter, trials)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != res.Completed {
		t.Errorf("counts sum %d != Completed %d", total, res.Completed)
	}
}

func TestCampaignSDCOutputCap(t *testing.T) {
	res, err := runCampaign(context.Background(), fault.SessionConfig{
		App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny, Workers: 4,
		KeepSDCOutputs: true, MaxSDCOutputs: 2,
	}, 500, 3)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.Counts[fault.OutcomeSDC] <= 2 {
		t.Skipf("only %d SDCs; cap not exercised", res.Counts[fault.OutcomeSDC])
	}
	if got := len(res.SDCOutputs()); got != 2 {
		t.Errorf("retained %d SDC outputs, want cap of 2", got)
	}
}

func TestResultRateEmpty(t *testing.T) {
	r := &fault.Result{}
	if r.Rate(fault.OutcomeMask) != 0 {
		t.Error("empty result rate should be 0")
	}
}

func BenchmarkTapIdx(b *testing.B) {
	m := fault.New()
	for i := 0; i < b.N; i++ {
		m.Idx(i)
	}
}

func BenchmarkTapIdxWithPlan(b *testing.B) {
	p := fault.Plan{Class: fault.GPR, Reg: 5, Bit: 3, Site: 1 << 60, Window: 10, Region: fault.RAny}
	m := fault.NewWithPlan(p, 0)
	for i := 0; i < b.N; i++ {
		m.Idx(i)
	}
}

func BenchmarkCampaignToyApp(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runCampaign(context.Background(), fault.SessionConfig{
			App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny,
		}, 100, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDedupRecords: records come back in plan-index order with the
// first record of a repeated index kept, and the input is untouched.
func TestDedupRecords(t *testing.T) {
	in := []fault.TrialRecord{
		{Index: 3, Outcome: fault.OutcomeSDC},
		{Index: 1, Outcome: fault.OutcomeCrash, Crash: fault.CrashSegv},
		{Index: 3, Outcome: fault.OutcomeMask},
		{Index: 0, Outcome: fault.OutcomeHang},
		{Index: 1, Outcome: fault.OutcomeMask},
	}
	orig := append([]fault.TrialRecord(nil), in...)
	want := []fault.TrialRecord{
		{Index: 0, Outcome: fault.OutcomeHang},
		{Index: 1, Outcome: fault.OutcomeCrash, Crash: fault.CrashSegv},
		{Index: 3, Outcome: fault.OutcomeSDC},
	}
	if got := fault.DedupRecords(in); !reflect.DeepEqual(got, want) {
		t.Errorf("DedupRecords = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(in, orig) {
		t.Errorf("DedupRecords modified its input: %v", in)
	}
	if got := fault.DedupRecords(nil); got != nil {
		t.Errorf("DedupRecords(nil) = %v, want nil", got)
	}
}
