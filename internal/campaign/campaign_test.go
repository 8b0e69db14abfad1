package campaign

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vsresil/internal/fault"
)

// toyApp is a miniature fault.App with a realistic mix of tap classes
// (crash-prone indices, SDC-prone pixels, mask-prone saturated
// floats), cheap enough for property-style campaign sweeps.
func toyApp(m *fault.Machine) ([]byte, error) {
	buf := make([]uint8, 64)
	for i := range buf {
		buf[i] = uint8(i * 3)
	}
	out := make([]uint8, 64)
	n := m.Cnt(len(buf))
	if n < 0 || n > len(buf) {
		return nil, errors.New("toy: invalid length")
	}
	for i := 0; i < n; i++ {
		idx := m.Idx(i)
		v := m.Pix(buf[idx]) // panics if idx out of range
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

// toySpec is the small campaign the engine tests run, interrupt and
// resume.
func toySpec() Spec {
	return Spec{
		Workload: NewWorkload("toy", "", toyApp),
		Class:    fault.GPR,
		Region:   fault.RAny,
		Trials:   60,
		Seed:     7,
		Workers:  2,
		SDC:      SDCPolicy{Keep: true, Max: 3},
	}
}

// requireIdentical compares every campaign observable of two results.
func requireIdentical(t *testing.T, label string, a, b *fault.Result) {
	t.Helper()
	if a.Completed != b.Completed {
		t.Errorf("%s: completed %d vs %d", label, a.Completed, b.Completed)
	}
	if a.Counts != b.Counts {
		t.Errorf("%s: outcome counts differ: %v vs %v", label, a.Counts, b.Counts)
	}
	if !reflect.DeepEqual(a.CrashCounts, b.CrashCounts) {
		t.Errorf("%s: crash splits differ: %v vs %v", label, a.CrashCounts, b.CrashCounts)
	}
	if !reflect.DeepEqual(a.RegHist.Counts, b.RegHist.Counts) {
		t.Errorf("%s: register histograms differ", label)
	}
	if !reflect.DeepEqual(a.BitHist.Counts, b.BitHist.Counts) {
		t.Errorf("%s: bit histograms differ", label)
	}
	if !reflect.DeepEqual(a.Curve.Checkpoints, b.Curve.Checkpoints) {
		t.Errorf("%s: rate-curve checkpoints differ: %v vs %v", label, a.Curve.Checkpoints, b.Curve.Checkpoints)
	}
	if !reflect.DeepEqual(a.Curve.Snapshots, b.Curve.Snapshots) {
		t.Errorf("%s: rate-curve snapshots differ", label)
	}
	if !bytes.Equal(a.GoldenOutput, b.GoldenOutput) {
		t.Errorf("%s: golden outputs differ", label)
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial counts differ: %d vs %d", label, len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.Outcome != tb.Outcome || ta.Crash != tb.Crash || ta.Landed != tb.Landed {
			t.Errorf("%s: trial %d differs: (%v,%v,landed=%v) vs (%v,%v,landed=%v)",
				label, i, ta.Outcome, ta.Crash, ta.Landed, tb.Outcome, tb.Crash, tb.Landed)
		}
		if (ta.Output == nil) != (tb.Output == nil) || !bytes.Equal(ta.Output, tb.Output) {
			t.Errorf("%s: trial %d SDC output retention differs", label, i)
		}
	}
}

// TestInterruptedRunResumes interrupts a run mid-campaign, then
// replays its checkpoint stream into a fresh run: the interrupted run
// must report a consistent partial result, and the resumed run must be
// bit-identical to the uninterrupted campaign. The specs here carry no
// SDC retention policy: a checkpoint record has no output bytes, so
// a resumed trial comes back without its output — callers wanting
// outputs across restarts keep them from the run that first executed
// the trial (TestResumeWorkerCountSkew).
func TestInterruptedRunResumes(t *testing.T) {
	noRetention := func() Spec {
		s := toySpec()
		s.SDC = SDCPolicy{}
		return s
	}
	var runner Runner
	base, err := runner.Run(context.Background(), noRetention())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var recs []fault.TrialRecord
	spec := noRetention()
	spec.OnTrial = func(rec fault.TrialRecord) {
		mu.Lock()
		recs = append(recs, rec)
		n := len(recs)
		mu.Unlock()
		if n == 10 {
			cancel()
		}
	}
	partial, err := runner.Run(ctx, spec)
	if err == nil {
		t.Fatal("interrupted run returned no error")
	}
	mu.Lock()
	checkpoint := append([]fault.TrialRecord(nil), recs...)
	mu.Unlock()
	// Interruption still yields the partial aggregate for reporting.
	if partial == nil || partial.Fault == nil {
		t.Fatal("interrupted run returned no partial result")
	}
	if got := partial.Fault.Completed; got == 0 || got >= toySpec().Trials {
		t.Fatalf("partial result completed %d trials, want partial coverage", got)
	}
	counted := 0
	for _, n := range partial.Fault.Counts {
		counted += n
	}
	if counted != partial.Fault.Completed {
		t.Errorf("partial counts sum to %d, completed %d", counted, partial.Fault.Completed)
	}
	if len(checkpoint) == 0 || len(checkpoint) >= toySpec().Trials {
		t.Fatalf("interruption checkpointed %d trials, want partial coverage", len(checkpoint))
	}

	resumed := noRetention()
	resumed.Resume = checkpoint
	got, err := runner.Run(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireIdentical(t, "resumed run", base.Fault, got.Fault)
	if want := base.Fault.Completed - len(checkpoint); got.Executed != want {
		t.Errorf("resumed run executed %d trials, want %d", got.Executed, want)
	}
}

// TestResumeWorkerCountSkew resumes one interrupted campaign journal
// under several different worker counts: the engine promises that
// parallelism never shows in the results, so every resumed run must be
// bit-identical to the uninterrupted base run, and the SDC outputs
// retained across interrupt + resume must be byte-identical to the
// base run's. (Resumed trials never re-execute, so the two runs'
// retained outputs partition the SDC set exactly.)
func TestResumeWorkerCountSkew(t *testing.T) {
	keepAll := func() Spec {
		spec := toySpec()
		spec.SDC = SDCPolicy{Keep: true}
		return spec
	}
	// collect moves res's retained SDC outputs into sink by plan index,
	// so the remaining observables compare with requireIdentical.
	collect := func(res *fault.Result, sink map[int][]byte) {
		for i := range res.Trials {
			if out := res.Trials[i].Output; out != nil {
				idx := res.Config.PlanOffset + i
				if _, dup := sink[idx]; dup {
					t.Errorf("SDC output for trial %d retained twice", idx)
				}
				sink[idx] = out
				res.Trials[i].Output = nil
			}
		}
	}
	var runner Runner
	baseSDC := map[int][]byte{}
	base, err := runner.Run(context.Background(), keepAll())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	collect(base.Fault, baseSDC)
	if len(baseSDC) == 0 {
		t.Fatal("base campaign produced no SDC outputs; the skew test needs some")
	}

	for _, w := range []int{1, 3, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var recs []fault.TrialRecord
		sdc := map[int][]byte{}
		spec := keepAll()
		spec.OnTrial = func(rec fault.TrialRecord) {
			mu.Lock()
			recs = append(recs, rec)
			n := len(recs)
			mu.Unlock()
			if n == 10 {
				cancel()
			}
		}
		partial, err := runner.Run(ctx, spec)
		if err == nil {
			t.Fatalf("workers=%d: interrupted run returned no error", w)
		}
		cancel()
		collect(partial.Fault, sdc)
		mu.Lock()
		checkpoint := append([]fault.TrialRecord(nil), recs...)
		mu.Unlock()

		resumed := keepAll()
		resumed.Workers = w
		resumed.Resume = checkpoint
		got, err := runner.Run(context.Background(), resumed)
		if err != nil {
			t.Fatalf("workers=%d: resumed run: %v", w, err)
		}
		collect(got.Fault, sdc)
		requireIdentical(t, "workers="+string(rune('0'+w)), base.Fault, got.Fault)
		if !reflect.DeepEqual(sdc, baseSDC) {
			t.Errorf("workers=%d: SDC outputs retained across interrupt + resume differ from base run (%d vs %d indices)",
				w, len(sdc), len(baseSDC))
		}
	}
}

// TestGoldenCacheSharing checks that a keyed workload captures its
// golden run once and that the runner reports hits and misses.
func TestGoldenCacheSharing(t *testing.T) {
	var calls atomic.Int64
	counted := func(m *fault.Machine) ([]byte, error) {
		calls.Add(1)
		return toyApp(m)
	}
	hits, misses := 0, 0
	runner := Runner{
		Goldens: NewGoldenCache(4),
		OnGoldenLookup: func(hit bool) {
			if hit {
				hits++
			} else {
				misses++
			}
		},
	}
	spec := toySpec()
	spec.Workload = NewWorkload("toy", "toy-key", counted)
	spec.Trials = 10
	for i := 0; i < 3; i++ {
		if _, err := runner.Run(context.Background(), spec); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	// One golden capture plus one invocation per trial: a cache miss on
	// any later run would add a second capture.
	if want := int64(3*spec.Trials + 1); calls.Load() != want {
		t.Errorf("app invoked %d times, want %d (one shared golden capture)", calls.Load(), want)
	}
	if hits != 2 || misses != 1 {
		t.Errorf("lookup stats hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// TestSpecValidation covers the cheap declarative checks.
func TestSpecValidation(t *testing.T) {
	var runner Runner
	bad := []Spec{
		{},                                       // no app
		{Workload: NewWorkload("x", "", toyApp)}, // no trials
	}
	for i, s := range bad {
		if _, err := runner.Run(context.Background(), s); err == nil {
			t.Errorf("spec %d validated unexpectedly", i)
		}
	}
}
