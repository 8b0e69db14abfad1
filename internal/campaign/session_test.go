package campaign

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"vsresil/internal/fault"
)

// requireStitchedTrials folds per-window results back into plan order
// and compares the execution observables trial by trial against the
// one-shot baseline.
func requireStitchedTrials(t *testing.T, label string, total int, wins []*Result, offsets []int, base []fault.Trial) {
	t.Helper()
	trials := make([]fault.Trial, total)
	seen := make([]bool, total)
	for w, res := range wins {
		for i := range res.Fault.Trials {
			gi := offsets[w] + i
			if seen[gi] {
				t.Fatalf("%s: plan index %d covered twice", label, gi)
			}
			trials[gi] = res.Fault.Trials[i]
			seen[gi] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("%s: plan index %d not covered", label, i)
		}
	}
	if len(trials) != len(base) {
		t.Fatalf("%s: trial counts differ: %d vs %d", label, len(trials), len(base))
	}
	for i := range trials {
		a, b := trials[i], base[i]
		if a.Outcome != b.Outcome || a.Crash != b.Crash || a.Landed != b.Landed {
			t.Errorf("%s: trial %d differs: (%v,%v,landed=%v) vs (%v,%v,landed=%v)",
				label, i, a.Outcome, a.Crash, a.Landed, b.Outcome, b.Crash, b.Landed)
		}
	}
}

// TestSessionPathEquivalence pins the tentpole property at the
// campaign layer: a persistent session serving a campaign's plan space
// as any decomposition of windows, at any worker count, reproduces the
// classic one-shot run bit for bit.
func TestSessionPathEquivalence(t *testing.T) {
	var runner Runner
	spec := toySpec()
	spec.SDC = SDCPolicy{} // retention caps are per-window by design; compare raw outcomes
	base, err := runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}

	for _, workers := range []int{1, 4} {
		for _, nwin := range []int{1, 3, 8} {
			s := spec
			s.Workers = workers
			sess, err := runner.OpenSession(s)
			if err != nil {
				t.Fatalf("workers=%d windows=%d: OpenSession: %v", workers, nwin, err)
			}
			golden := sess.Golden()
			plans := fault.GeneratePlans(s.Seed, s.Class, s.Region,
				fault.WindowFor(s.Class, s.Window), s.Trials, golden.Taps(s.Class, s.Region))
			var wins []*Result
			var offsets []int
			for j := 0; j < nwin; j++ {
				lo, hi := j*len(plans)/nwin, (j+1)*len(plans)/nwin
				res, err := runWindow(context.Background(), sess, s, plans[lo:hi], lo)
				if err != nil {
					sess.Close()
					t.Fatalf("workers=%d windows=%d: window [%d,%d): %v", workers, nwin, lo, hi, err)
				}
				wins = append(wins, res)
				offsets = append(offsets, lo)
			}
			st := sess.Stats()
			sess.Close()
			if st.RoundsServed != uint64(nwin) {
				t.Errorf("workers=%d windows=%d: RoundsServed = %d", workers, nwin, st.RoundsServed)
			}
			requireStitchedTrials(t, "session path", s.Trials, wins, offsets, base.Fault.Trials)
		}
	}
}

// TestSessionResumeIndexManyRounds drives the sorted resume index
// through the worst case the old per-window rescan was quadratic in:
// a large journal resumed across many small rounds. The journal is
// replayed in reverse order to prove the index, not the caller,
// establishes plan order.
func TestSessionResumeIndexManyRounds(t *testing.T) {
	var runner Runner
	small := func() Spec {
		s := adaptiveSpec()
		s.Adaptive.RoundSize = 4
		return s
	}

	var mu sync.Mutex
	var journal []fault.TrialRecord
	spec := small()
	spec.OnTrial = func(rec fault.TrialRecord) {
		mu.Lock()
		journal = append(journal, rec)
		mu.Unlock()
	}
	base, err := runner.RunAdaptive(context.Background(), spec, 1)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	if base.Rounds < 6 {
		t.Fatalf("round size 4 produced only %d rounds, want many", base.Rounds)
	}
	if len(journal) != base.Trials {
		t.Fatalf("journal has %d records, campaign observed %d trials", len(journal), base.Trials)
	}

	cut := 2 * len(journal) / 3
	rev := make([]fault.TrialRecord, cut)
	for i := 0; i < cut; i++ {
		rev[i] = journal[cut-1-i]
	}
	resumed := small()
	resumed.Resume = rev
	rres, err := runner.RunAdaptive(context.Background(), resumed, 1)
	if err != nil {
		t.Fatalf("resumed RunAdaptive: %v", err)
	}
	if !reflect.DeepEqual(rres.Records, base.Records) {
		t.Error("resumed records differ from the uninterrupted run")
	}
	if want := base.Trials - cut; rres.Executed != want {
		t.Errorf("resumed run executed %d trials, want %d", rres.Executed, want)
	}
	if rres.Session.RoundsServed == 0 {
		t.Error("resumed run reported no session rounds")
	}
}

// TestAdaptiveCancellationMidRound cancels an adaptive campaign in the
// middle of a round: the partial AdaptiveResult must carry exactly the
// completed rounds with a non-nil error, and resuming from the
// partial run's journal must replay onto the identical trial sequence.
func TestAdaptiveCancellationMidRound(t *testing.T) {
	var runner Runner
	mk := func() Spec {
		s := adaptiveSpec()
		s.Adaptive.RoundSize = 8
		return s
	}

	var roundSizes []int
	spec := mk()
	spec.Adaptive.OnRound = func(st RoundStatus) { roundSizes = append(roundSizes, st.RoundTrials) }
	base, err := runner.RunAdaptive(context.Background(), spec, 2)
	if err != nil {
		t.Fatalf("baseline RunAdaptive: %v", err)
	}
	if len(roundSizes) < 2 {
		t.Fatalf("baseline ran %d rounds, need at least 2", len(roundSizes))
	}
	cancelAt := roundSizes[0] + roundSizes[1]/2
	if cancelAt <= roundSizes[0] {
		cancelAt = roundSizes[0] + 1
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var journal []fault.TrialRecord
	interrupted := mk()
	interrupted.OnTrial = func(rec fault.TrialRecord) {
		mu.Lock()
		journal = append(journal, rec)
		n := len(journal)
		mu.Unlock()
		if n == cancelAt {
			cancel()
		}
	}
	pres, err := runner.RunAdaptive(ctx, interrupted, 2)
	if err == nil {
		t.Fatal("canceled campaign returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation error %v does not wrap context.Canceled", err)
	}
	if pres == nil {
		t.Fatal("canceled campaign returned no partial result")
	}
	if len(pres.Records) == 0 || len(pres.Records) >= len(base.Records) {
		t.Fatalf("partial run carries %d records, want a non-empty strict subset of %d",
			len(pres.Records), len(base.Records))
	}
	if !reflect.DeepEqual(pres.Records, base.Records[:len(pres.Records)]) {
		t.Error("partial records are not a prefix of the uninterrupted run's")
	}

	mu.Lock()
	resume := append([]fault.TrialRecord(nil), journal...)
	mu.Unlock()
	if len(resume) == 0 || len(resume) >= base.Trials {
		t.Fatalf("interruption journaled %d trials, want partial coverage of %d", len(resume), base.Trials)
	}
	resumed := mk()
	resumed.Resume = resume
	rres, err := runner.RunAdaptive(context.Background(), resumed, 2)
	if err != nil {
		t.Fatalf("resumed RunAdaptive: %v", err)
	}
	if !reflect.DeepEqual(rres.Records, base.Records) {
		t.Error("resumed records differ from the uninterrupted run")
	}
	if want := base.Trials - len(resume); rres.Executed != want {
		t.Errorf("resumed run executed %d trials, want %d", rres.Executed, want)
	}
}

// TestAdaptiveSessionStats checks the campaign-level reuse counters on
// a staged workload: the round loop must serve every round from one
// session, hitting the bucket-preparation cache on rounds after the
// first.
func TestAdaptiveSessionStats(t *testing.T) {
	var runner Runner
	st := newStagedToy()
	spec := stagedToySpec(st)
	spec.SDC = SDCPolicy{}
	spec.Adaptive = &AdaptiveSpec{Precision: 0.05, Confidence: 0.95}
	res, err := runner.RunAdaptive(context.Background(), spec, 1)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	s := res.Session
	if s.RoundsServed < 2 {
		t.Fatalf("RoundsServed = %d, want the whole round loop", s.RoundsServed)
	}
	if uint64(res.Rounds) > s.RoundsServed {
		t.Errorf("planner ran %d rounds but the session served only %d", res.Rounds, s.RoundsServed)
	}
	if s.BucketPrepMisses == 0 {
		t.Error("BucketPrepMisses = 0: no bucket was ever prepared")
	}
	if s.BucketPrepHits == 0 {
		t.Error("BucketPrepHits = 0: later rounds did not reuse the prep cache")
	}
	if st.resumes.Load() == 0 {
		t.Error("no trial resumed from a checkpoint — staged path never engaged")
	}
}

// TestAdaptiveRoundLoopAllocs is the allocation regression guard for
// the adaptive round loop: per executed trial, the whole campaign —
// planner, session scheduling and trial execution included — must stay
// under a fixed allocation ceiling. Catches accidental per-round
// executor rebuilds, which show up as hundreds of extra allocations
// per trial.
func TestAdaptiveRoundLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	var runner Runner
	spec := adaptiveSpec()
	spec.Workers = 1
	// Pre-resolve the golden so capture is not billed to the loop.
	sess, err := runner.OpenSession(spec)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	spec.Golden = sess.Golden()
	sess.Close()

	executed := 0
	allocs := testing.AllocsPerRun(3, func() {
		res, err := runner.RunAdaptive(context.Background(), spec, 1)
		if err != nil {
			panic(err)
		}
		executed = res.Executed
	})
	if executed == 0 {
		t.Fatal("adaptive campaign executed no trials")
	}
	perTrial := allocs / float64(executed)
	// Measured ~9 objects per executed trial (toyApp's own buffers
	// included). The ceiling leaves slack for toolchain drift without
	// letting a per-round executor rebuild — which shows up as tens of
	// extra objects per trial — through.
	const ceiling = 20.0
	if perTrial > ceiling {
		t.Errorf("adaptive round loop allocates %.1f objects per trial, over the %.0f ceiling", perTrial, ceiling)
	}
}
