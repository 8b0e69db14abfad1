package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"vsresil/internal/fault"
)

// stagedToy is a two-stage fault.StagedApp over the same tap mix as
// toyApp: stage "fill" builds the input buffer through pixel taps,
// stage "transform" computes the output. The boundary snapshot is the
// filled buffer, shared read-only by every resumed trial. Invocation
// counters let the tests assert the skip path actually engaged.
type stagedToy struct {
	fulls, resumes *atomic.Int64
}

func newStagedToy() stagedToy {
	return stagedToy{fulls: new(atomic.Int64), resumes: new(atomic.Int64)}
}

func (s stagedToy) run(m *fault.Machine, snap func(string, any), buf []uint8) ([]byte, error) {
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

func (s stagedToy) RunFull(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
	s.fulls.Add(1)
	return s.run(m, snap, nil)
}

func (s stagedToy) Resume(m *fault.Machine, state any) ([]byte, error) {
	s.resumes.Add(1)
	return s.run(m, nil, state.([]uint8))
}

// stagedToySpec is toySpec over the staged workload.
func stagedToySpec(st stagedToy) Spec {
	s := toySpec()
	s.Workload = NewStagedWorkload("toy-staged", "",
		func(m *fault.Machine) ([]byte, error) { return st.RunFull(m, nil) }, st)
	return s
}

// fullExecution returns s with a golden captured from its app alone:
// no checkpoints, so the campaign runs every trial in full.
func fullExecution(t *testing.T, s Spec) Spec {
	t.Helper()
	golden, err := fault.CaptureGolden(s.Workload.App)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	s.Golden = golden
	return s
}

// TestPrefixSkipEquivalence is the engine-level half of the prefix-skip
// guard: with skipping on, every campaign observable — outcome counts,
// crash split, histograms, rate curve, retained SDC outputs — must be
// bit-identical to full execution, for both register classes, and the
// skip path must demonstrably engage.
func TestPrefixSkipEquivalence(t *testing.T) {
	t.Parallel()
	var runner Runner
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		st := newStagedToy()
		spec := stagedToySpec(st)
		spec.Class = class

		full, err := runner.Run(context.Background(), fullExecution(t, spec))
		if err != nil {
			t.Fatalf("%v full run: %v", class, err)
		}
		if st.resumes.Load() != 0 {
			t.Fatalf("%v: checkpoint-free golden still resumed %d trials", class, st.resumes.Load())
		}

		skipped, err := runner.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%v skipping run: %v", class, err)
		}
		if st.resumes.Load() == 0 {
			t.Errorf("%v: no trial resumed from the checkpoint — skip path never engaged", class)
		}
		requireIdentical(t, "prefix skip on vs off, class "+class.String(), full.Fault, skipped.Fault)
	}
}

// TestPrefixSkipShardMergeEquivalence layers sharding on top: each
// shard buckets its own plan window against the shared checkpointed
// golden, and the merged result must still match the full-execution
// unsharded run bit for bit.
func TestPrefixSkipShardMergeEquivalence(t *testing.T) {
	t.Parallel()
	var runner Runner
	st := newStagedToy()
	spec := stagedToySpec(st)

	base, err := runner.Run(context.Background(), fullExecution(t, spec))
	if err != nil {
		t.Fatalf("unsharded full run: %v", err)
	}

	for _, k := range []int{1, 2, 5} {
		before := st.resumes.Load()
		merged, err := runner.RunSharded(context.Background(), spec, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if st.resumes.Load() == before {
			t.Errorf("k=%d: no trial resumed from the checkpoint", k)
		}
		requireIdentical(t, "skipping shards k="+string(rune('0'+k)), base.Fault, merged.Fault)
	}
}

// TestPrefixSkipShardedResume interrupts a sharded skipping run, then
// replays its checkpoint journal into a fresh sharded skipping run: a
// resumed shard must bucket and skip its remaining plans identically,
// landing on the same bit-identical result as full execution.
func TestPrefixSkipShardedResume(t *testing.T) {
	t.Parallel()
	var runner Runner
	st := newStagedToy()
	noRetention := func() Spec {
		s := stagedToySpec(st)
		s.SDC = SDCPolicy{}
		return s
	}

	base, err := runner.Run(context.Background(), fullExecution(t, noRetention()))
	if err != nil {
		t.Fatalf("unsharded full run: %v", err)
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
	if _, err := runner.RunSharded(ctx, spec, 3); err == nil {
		t.Fatal("interrupted sharded run returned no error")
	}
	mu.Lock()
	journal := append([]fault.TrialRecord(nil), recs...)
	mu.Unlock()
	if len(journal) == 0 || len(journal) >= noRetention().Trials {
		t.Fatalf("interruption journaled %d trials, want partial coverage", len(journal))
	}

	resumed := noRetention()
	resumed.Resume = journal
	merged, err := runner.RunSharded(context.Background(), resumed, 3)
	if err != nil {
		t.Fatalf("resumed sharded run: %v", err)
	}
	requireIdentical(t, "resumed skipping shards", base.Fault, merged.Fault)
	if want := base.Fault.Completed - len(journal); merged.Executed != want {
		t.Errorf("resumed run executed %d trials, want %d", merged.Executed, want)
	}
}
