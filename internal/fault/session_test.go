package fault_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
)

// stitchWindows folds per-window results into one trial table of the
// full plan space, so the session path can be compared against the
// one-shot campaign trial by trial.
func stitchWindows(t *testing.T, total int, wins []*fault.Result, offsets []int) []fault.Trial {
	t.Helper()
	trials := make([]fault.Trial, total)
	seen := make([]bool, total)
	for w, res := range wins {
		for i := range res.Trials {
			gi := offsets[w] + i
			if seen[gi] {
				t.Fatalf("plan index %d covered by two windows", gi)
			}
			trials[gi] = res.Trials[i]
			seen[gi] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("plan index %d not covered by any window", i)
		}
	}
	return trials
}

// TestSessionWindowsMatchRunCampaign is the tentpole equivalence at the
// fault layer: successive windows through one persistent session must
// reproduce the one-shot campaign (runCampaign) bit for bit, and the
// session must visibly amortize its pool across windows.
func TestSessionWindowsMatchRunCampaign(t *testing.T) {
	const total = 60
	sc := fault.SessionConfig{App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny, Workers: 2}
	baseline, err := runCampaign(context.Background(), sc, total, 11)
	if err != nil {
		t.Fatalf("one-shot campaign: %v", err)
	}

	golden, err := fault.CaptureGolden(faulttest.ToyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	sc.Golden = golden
	s, err := fault.NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	var wins []*fault.Result
	offsets := []int{0, 20, 40}
	for _, lo := range offsets {
		res, err := s.Run(context.Background(), window(baseline.Config.Plans, lo, 20))
		if err != nil {
			t.Fatalf("session window [%d,%d): %v", lo, lo+20, err)
		}
		wins = append(wins, res)
	}
	faulttest.RequireSameTrials(t, "session windows vs one-shot",
		stitchWindows(t, total, wins, offsets), baseline.Trials)

	st := s.Stats()
	if st.RoundsServed != 3 {
		t.Errorf("RoundsServed = %d, want 3", st.RoundsServed)
	}
	if st.WorkersSpawned > 2 {
		t.Errorf("WorkersSpawned = %d, want <= 2 (pool must be reused)", st.WorkersSpawned)
	}
	if st.WorkersReused == 0 {
		t.Error("WorkersReused = 0: later windows did not reuse the pool")
	}
}

// window returns the window of the n plans of the plan space that
// start at plan index lo.
func window(plans []fault.Plan, lo, n int) fault.Config {
	return fault.Config{PlanOffset: lo, Plans: plans[lo : lo+n]}
}

// TestSessionBucketPrepCache checks the staged path: checkpoint-bucket
// preparations are cached for the session's lifetime, so windows after
// the first see cache hits — and the cached preparation changes no
// observable.
func TestSessionBucketPrepCache(t *testing.T) {
	const total = 60
	st := faulttest.NewStagedToy()
	golden, err := fault.CaptureGoldenStaged(st)
	if err != nil {
		t.Fatalf("CaptureGoldenStaged: %v", err)
	}
	plans := fault.GeneratePlans(3, fault.GPR, fault.RAny, fault.WindowFor(fault.GPR, 0), total, golden.Taps(fault.GPR, fault.RAny))
	sc := fault.SessionConfig{Staged: st, Golden: golden, Workers: 2, Class: fault.GPR, Region: fault.RAny}
	oneShot, err := fault.NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	baseline, err := oneShot.Run(context.Background(), fault.Config{Plans: plans})
	oneShot.Close()
	if err != nil {
		t.Fatalf("one-shot staged campaign: %v", err)
	}

	s, err := fault.NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	var wins []*fault.Result
	offsets := []int{0, 30}
	for _, lo := range offsets {
		res, err := s.Run(context.Background(), window(plans, lo, 30))
		if err != nil {
			t.Fatalf("session window [%d,%d): %v", lo, lo+30, err)
		}
		wins = append(wins, res)
	}
	faulttest.RequireSameTrials(t, "staged session windows vs one-shot",
		stitchWindows(t, total, wins, offsets), baseline.Trials)

	stats := s.Stats()
	if stats.BucketPrepMisses == 0 {
		t.Error("BucketPrepMisses = 0: no bucket was ever prepared")
	}
	if stats.BucketPrepHits == 0 {
		t.Error("BucketPrepHits = 0: the second window did not reuse the prep cache")
	}
	if st.Resumes.Load() == 0 {
		t.Error("no trial resumed from a checkpoint — staged path never engaged")
	}
}

// TestSessionConcurrentWindows runs disjoint windows of one campaign
// through the same session from concurrent goroutines (the adaptive
// round sub-window pattern) and checks the stitched result against the
// one-shot campaign.
func TestSessionConcurrentWindows(t *testing.T) {
	const total = 60
	sc := fault.SessionConfig{App: faulttest.ToyApp, Class: fault.FPR, Region: fault.RAny, Workers: 2}
	baseline, err := runCampaign(context.Background(), sc, total, 29)
	if err != nil {
		t.Fatalf("one-shot campaign: %v", err)
	}

	golden, err := fault.CaptureGolden(faulttest.ToyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	sc.Golden, sc.Workers = golden, 4
	s, err := fault.NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	offsets := []int{0, 15, 30, 45}
	wins := make([]*fault.Result, len(offsets))
	errs := make([]error, len(offsets))
	var wg sync.WaitGroup
	for w, lo := range offsets {
		wg.Add(1)
		go func(w, lo int) {
			defer wg.Done()
			wins[w], errs[w] = s.Run(context.Background(), window(baseline.Config.Plans, lo, 15))
		}(w, lo)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("concurrent window %d: %v", w, err)
		}
	}
	faulttest.RequireSameTrials(t, "concurrent session windows vs one-shot",
		stitchWindows(t, total, wins, offsets), baseline.Trials)
}

// TestSessionHooksAcrossConcurrentWindows runs several windows of one
// session concurrently with a session-level OnTrial and a resume
// journal spread over every window. The session must serialize the
// hook across windows — it appends to an unguarded map, which the race
// detector flags otherwise, and an in-flight counter catches overlap
// without it — and every executed plan index must arrive exactly once,
// while resumed indices never reach the hook.
func TestSessionHooksAcrossConcurrentWindows(t *testing.T) {
	const total, windows = 96, 6
	golden, err := fault.CaptureGolden(faulttest.ToyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	plans := fault.GeneratePlans(5, fault.GPR, fault.RAny, fault.WindowFor(fault.GPR, 0), total, golden.Taps(fault.GPR, fault.RAny))
	// Resume every fifth plan, journaled in reverse order.
	var resume []fault.TrialRecord
	for i := total - 1; i >= 0; i-- {
		if i%5 == 0 {
			resume = append(resume, fault.TrialRecord{Index: i, Outcome: fault.OutcomeMask})
		}
	}
	seen := make(map[int]int) // written only by the hook
	var inFlight, overlaps atomic.Int64
	s, err := fault.NewSession(fault.SessionConfig{
		App: faulttest.ToyApp, Golden: golden, Workers: 4, Class: fault.GPR, Region: fault.RAny,
		Resume: resume,
		OnTrial: func(rec fault.TrialRecord) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			seen[rec.Index]++
			time.Sleep(50 * time.Microsecond) // widen the window an overlap would show in
			inFlight.Add(-1)
		},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	n := total / windows
	wins := make([]*fault.Result, windows)
	errs := make([]error, windows)
	var wg sync.WaitGroup
	for w := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins[w], errs[w] = s.Run(context.Background(), window(plans, w*n, n))
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("OnTrial ran concurrently %d times", n)
	}
	resumed := 0
	for w, res := range wins {
		resumed += res.Resumed
		if res.Completed != n {
			t.Errorf("window %d completed %d trials, want %d", w, res.Completed, n)
		}
	}
	if resumed != len(resume) {
		t.Errorf("windows folded %d resume records, want %d", resumed, len(resume))
	}
	for i := range total {
		want := 1
		if i%5 == 0 {
			want = 0
		}
		if seen[i] != want {
			t.Errorf("plan index %d reached OnTrial %d times, want %d", i, seen[i], want)
		}
	}
	if len(seen) != total-len(resume) {
		t.Errorf("OnTrial saw %d indices, want %d", len(seen), total-len(resume))
	}
}

// TestSessionValidation covers the session-specific error surface:
// construction without an app or golden, an empty window and Run after
// Close.
func TestSessionValidation(t *testing.T) {
	golden, err := fault.CaptureGolden(faulttest.ToyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}

	if _, err := fault.NewSession(fault.SessionConfig{Golden: golden}); err == nil {
		t.Error("NewSession without app accepted")
	}
	if _, err := fault.NewSession(fault.SessionConfig{App: faulttest.ToyApp}); err == nil {
		t.Error("NewSession without golden accepted")
	}

	s, err := fault.NewSession(fault.SessionConfig{App: faulttest.ToyApp, Golden: golden, Class: fault.GPR, Region: fault.RAny})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Run(context.Background(), fault.Config{}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("window without plans: got %v, want empty-window error", err)
	}

	s.Close()
	s.Close() // idempotent
	cfg := fault.Config{Plans: fault.GeneratePlans(1, fault.GPR, fault.RAny, fault.WindowFor(fault.GPR, 0), 4, golden.Taps(fault.GPR, fault.RAny))}
	if _, err := s.Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Run on closed session: got %v, want closed error", err)
	}
}

// TestSessionClampsWorkers reads the pool cap a session computes: an
// explicit count is kept up to WorkersPerCPU per host CPU and clamped
// beyond it, and zero means GOMAXPROCS. No worker is started.
func TestSessionClampsWorkers(t *testing.T) {
	golden, err := fault.CaptureGolden(faulttest.ToyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	limit := fault.WorkersPerCPU * runtime.NumCPU()
	for _, tc := range []struct{ workers, want int }{
		{1, 1},
		{limit, limit},
		{limit + 1, limit},
		{1000000, limit},
		{0, min(runtime.GOMAXPROCS(0), limit)},
	} {
		s, err := fault.NewSession(fault.SessionConfig{App: faulttest.ToyApp, Golden: golden, Workers: tc.workers, Class: fault.GPR, Region: fault.RAny})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		if got := s.WorkerCap(); got != tc.want {
			t.Errorf("Workers %d: pool cap %d, want %d", tc.workers, got, tc.want)
		}
		if st := s.Stats(); st.WorkersSpawned != 0 {
			t.Errorf("Workers %d: opening the session spawned %d workers", tc.workers, st.WorkersSpawned)
		}
		s.Close()
	}
}
