package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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
	base := Config{Trials: total, Class: GPR, Region: RAny, Workers: 2}
	baseline, err := runCampaign(context.Background(), base, 11, toyApp)
	if err != nil {
		t.Fatalf("one-shot campaign: %v", err)
	}

	golden, err := CaptureGolden(toyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	s, err := NewSession(SessionConfig{App: toyApp, Golden: golden, Workers: 2})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	var wins []*Result
	offsets := []int{0, 20, 40}
	for _, lo := range offsets {
		res, err := s.Run(context.Background(), window(base, baseline.Config.Plans, lo, 20))
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

// window returns base narrowed to the n plans of the plan space that
// start at plan index lo.
func window(base Config, plans []Plan, lo, n int) Config {
	base.Trials = n
	base.PlanOffset = lo
	base.Plans = plans[lo : lo+n]
	return base
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
	base := Config{Trials: total, Class: GPR, Region: RAny, Workers: 2, Plans: plans}
	oneShot, err := NewSession(SessionConfig{Staged: st, Golden: golden, Workers: 2})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	baseline, err := oneShot.Run(context.Background(), base)
	oneShot.Close()
	if err != nil {
		t.Fatalf("one-shot staged campaign: %v", err)
	}

	s, err := NewSession(SessionConfig{Staged: st, Golden: golden, Workers: 2})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	var wins []*Result
	offsets := []int{0, 30}
	for _, lo := range offsets {
		res, err := s.Run(context.Background(), window(base, plans, lo, 30))
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
	base := Config{Trials: total, Class: FPR, Region: RAny, Workers: 2}
	baseline, err := runCampaign(context.Background(), base, 29, toyApp)
	if err != nil {
		t.Fatalf("one-shot campaign: %v", err)
	}

	golden, err := CaptureGolden(toyApp)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	s, err := NewSession(SessionConfig{App: toyApp, Golden: golden, Workers: 4})
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
			wins[w], errs[w] = s.Run(context.Background(), window(base, baseline.Config.Plans, lo, 15))
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

// TestSessionValidation covers the session-specific error surface:
// construction without an app or golden, a window whose plans do not
// match its trial count, and Run after Close.
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

	s, err := NewSession(SessionConfig{App: toyApp, Golden: golden})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	cfg := Config{Trials: 5, Class: GPR, Region: RAny}
	if _, err := s.Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "plans") {
		t.Errorf("window without plans: got %v, want plan-count error", err)
	}
	cfg.Plans = GeneratePlans(1, GPR, RAny, WindowFor(GPR, 0), 4, golden.Taps(GPR, RAny))
	if _, err := s.Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "plans") {
		t.Errorf("4 plans for 5 trials: got %v, want plan-count error", err)
	}

	s.Close()
	s.Close() // idempotent
	cfg.Trials = len(cfg.Plans)
	if _, err := s.Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Run on closed session: got %v, want closed error", err)
	}
}
