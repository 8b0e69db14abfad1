package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sessionStagedToy is a two-stage staged view of toyApp's tap mix for
// the session tests: stage "transform" snapshots the filled buffer so
// resumed trials share the boundary state. Counters let the tests
// assert the skip/prep paths engaged.
type sessionStagedToy struct {
	fulls, resumes *atomic.Int64
}

func newSessionStagedToy() sessionStagedToy {
	return sessionStagedToy{fulls: new(atomic.Int64), resumes: new(atomic.Int64)}
}

func (s sessionStagedToy) run(m *Machine, snap func(string, any), buf []uint8) ([]byte, error) {
	if buf == nil {
		b := make([]uint8, 64)
		for i := range b {
			b[i] = m.Pix(uint8(i * 3))
		}
		if snap != nil {
			snap("transform", b[:len(b):len(b)])
		}
		buf = b
	}
	out := make([]uint8, 64)
	n := m.Cnt(len(buf))
	if n < 0 || n > len(buf) {
		return nil, errors.New("toy: invalid length")
	}
	for i := 0; i < n; i++ {
		idx := m.Idx(i)
		v := m.Pix(buf[idx])
		f := m.F64(float64(v) * 1.5)
		if f > 255 {
			f = 255
		}
		if f < 0 {
			f = 0
		}
		out[m.Idx(i)] = uint8(f)
	}
	return out, nil
}

func (s sessionStagedToy) RunFull(m *Machine, snap func(name string, state any)) ([]byte, error) {
	s.fulls.Add(1)
	return s.run(m, snap, nil)
}

func (s sessionStagedToy) Resume(m *Machine, state any) ([]byte, error) {
	s.resumes.Add(1)
	return s.run(m, nil, state.([]uint8))
}

// stitchWindows folds per-window results into one trial table of the
// full plan space, so the session path can be compared against the
// one-shot campaign trial by trial.
func stitchWindows(t *testing.T, total int, wins []*Result, offsets []int) []Trial {
	t.Helper()
	trials := make([]Trial, total)
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

func requireSameTrials(t *testing.T, label string, a, b []Trial) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trial counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Outcome != b[i].Outcome || a[i].Crash != b[i].Crash || a[i].Landed != b[i].Landed {
			t.Errorf("%s: trial %d differs: (%v,%v,landed=%v) vs (%v,%v,landed=%v)",
				label, i, a[i].Outcome, a[i].Crash, a[i].Landed, b[i].Outcome, b[i].Crash, b[i].Landed)
		}
	}
}

// TestSessionWindowsMatchRunCampaign is the tentpole equivalence at the
// fault layer: successive windows through one persistent session must
// reproduce the one-shot campaign (runCampaign) bit for bit, and the
// session must visibly amortize its pool across windows.
func TestSessionWindowsMatchRunCampaign(t *testing.T) {
	const total = 60
	sc := SessionConfig{App: toyApp, Class: GPR, Region: RAny, Workers: 2}
	baseline, err := runCampaign(context.Background(), sc, total, 11)
	if err != nil {
		t.Fatalf("one-shot campaign: %v", err)
	}

	golden, err := CaptureGolden(toyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	sc.Golden = golden
	s, err := NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	var wins []*Result
	offsets := []int{0, 20, 40}
	for _, lo := range offsets {
		res, err := s.Run(context.Background(), window(baseline.Config.Plans, lo, 20))
		if err != nil {
			t.Fatalf("session window [%d,%d): %v", lo, lo+20, err)
		}
		wins = append(wins, res)
	}
	requireSameTrials(t, "session windows vs one-shot",
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
func window(plans []Plan, lo, n int) Config {
	return Config{PlanOffset: lo, Plans: plans[lo : lo+n]}
}

// TestSessionBucketPrepCache checks the staged path: checkpoint-bucket
// preparations are cached for the session's lifetime, so windows after
// the first see cache hits — and the cached preparation changes no
// observable.
func TestSessionBucketPrepCache(t *testing.T) {
	const total = 60
	st := newSessionStagedToy()
	golden, err := CaptureGoldenStaged(st)
	if err != nil {
		t.Fatalf("CaptureGoldenStaged: %v", err)
	}
	plans := GeneratePlans(3, GPR, RAny, WindowFor(GPR, 0), total, golden.Taps(GPR, RAny))
	sc := SessionConfig{Staged: st, Golden: golden, Workers: 2, Class: GPR, Region: RAny}
	oneShot, err := NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	baseline, err := oneShot.Run(context.Background(), Config{Plans: plans})
	oneShot.Close()
	if err != nil {
		t.Fatalf("one-shot staged campaign: %v", err)
	}

	s, err := NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	var wins []*Result
	offsets := []int{0, 30}
	for _, lo := range offsets {
		res, err := s.Run(context.Background(), window(plans, lo, 30))
		if err != nil {
			t.Fatalf("session window [%d,%d): %v", lo, lo+30, err)
		}
		wins = append(wins, res)
	}
	requireSameTrials(t, "staged session windows vs one-shot",
		stitchWindows(t, total, wins, offsets), baseline.Trials)

	stats := s.Stats()
	if stats.BucketPrepMisses == 0 {
		t.Error("BucketPrepMisses = 0: no bucket was ever prepared")
	}
	if stats.BucketPrepHits == 0 {
		t.Error("BucketPrepHits = 0: the second window did not reuse the prep cache")
	}
	if st.resumes.Load() == 0 {
		t.Error("no trial resumed from a checkpoint — staged path never engaged")
	}
}

// TestSessionConcurrentWindows runs disjoint windows of one campaign
// through the same session from concurrent goroutines (the adaptive
// round sub-window pattern) and checks the stitched result against the
// one-shot campaign.
func TestSessionConcurrentWindows(t *testing.T) {
	const total = 60
	sc := SessionConfig{App: toyApp, Class: FPR, Region: RAny, Workers: 2}
	baseline, err := runCampaign(context.Background(), sc, total, 29)
	if err != nil {
		t.Fatalf("one-shot campaign: %v", err)
	}

	golden, err := CaptureGolden(toyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	sc.Golden, sc.Workers = golden, 4
	s, err := NewSession(sc)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	offsets := []int{0, 15, 30, 45}
	wins := make([]*Result, len(offsets))
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
	requireSameTrials(t, "concurrent session windows vs one-shot",
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
	golden, err := CaptureGolden(toyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	plans := GeneratePlans(5, GPR, RAny, WindowFor(GPR, 0), total, golden.Taps(GPR, RAny))
	// Resume every fifth plan, journaled in reverse order.
	var resume []TrialRecord
	for i := total - 1; i >= 0; i-- {
		if i%5 == 0 {
			resume = append(resume, TrialRecord{Index: i, Outcome: OutcomeMask})
		}
	}
	seen := make(map[int]int) // written only by the hook
	var inFlight, overlaps atomic.Int64
	s, err := NewSession(SessionConfig{
		App: toyApp, Golden: golden, Workers: 4, Class: GPR, Region: RAny,
		Resume: resume,
		OnTrial: func(rec TrialRecord) {
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
	wins := make([]*Result, windows)
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
	golden, err := CaptureGolden(toyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}

	if _, err := NewSession(SessionConfig{Golden: golden}); err == nil {
		t.Error("NewSession without app accepted")
	}
	if _, err := NewSession(SessionConfig{App: toyApp}); err == nil {
		t.Error("NewSession without golden accepted")
	}

	s, err := NewSession(SessionConfig{App: toyApp, Golden: golden, Class: GPR, Region: RAny})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Run(context.Background(), Config{}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("window without plans: got %v, want empty-window error", err)
	}

	s.Close()
	s.Close() // idempotent
	cfg := Config{Plans: GeneratePlans(1, GPR, RAny, WindowFor(GPR, 0), 4, golden.Taps(GPR, RAny))}
	if _, err := s.Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Run on closed session: got %v, want closed error", err)
	}
}
