package campaign

import (
	"context"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
)

// stagedToySpec is toySpec over the staged workload.
func stagedToySpec(st faulttest.StagedToy) Spec {
	s := toySpec()
	s.Workload = NewStagedWorkload("toy-staged", "", st.App, st)
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
		st := faulttest.NewStagedToy()
		spec := stagedToySpec(st)
		spec.Class = class

		fullSpec := spec
		fullSpec.Golden = faulttest.FullGolden(t, spec.Workload.App)
		full, err := runner.Run(context.Background(), fullSpec)
		if err != nil {
			t.Fatalf("%v full run: %v", class, err)
		}
		if st.Resumes.Load() != 0 {
			t.Fatalf("%v: checkpoint-free golden still resumed %d trials", class, st.Resumes.Load())
		}

		skipped, err := runner.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%v skipping run: %v", class, err)
		}
		if st.Resumes.Load() == 0 {
			t.Errorf("%v: no trial resumed from the checkpoint — skip path never engaged", class)
		}
		faulttest.RequireIdentical(t, "prefix skip on vs off, class "+class.String(), full.Fault, skipped.Fault)
	}
}

// TestPrefixSkipResume interrupts a skipping run, then replays its
// checkpoint journal into a fresh skipping run: the resumed run must
// bucket and skip its remaining plans identically, landing on the same
// bit-identical result as full execution.
func TestPrefixSkipResume(t *testing.T) {
	t.Parallel()
	var runner Runner
	st := faulttest.NewStagedToy()
	noRetention := func() Spec {
		s := stagedToySpec(st)
		s.SDC = SDCPolicy{}
		return s
	}

	fullSpec := noRetention()
	fullSpec.Golden = faulttest.FullGolden(t, fullSpec.Workload.App)
	base, err := runner.Run(context.Background(), fullSpec)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}

	ctx, hook, journaled := cancelAfter(10)
	spec := noRetention()
	spec.OnTrial = hook
	if _, err := runner.Run(ctx, spec); err == nil {
		t.Fatal("interrupted run returned no error")
	}
	journal := journaled()
	if len(journal) == 0 || len(journal) >= noRetention().Trials {
		t.Fatalf("interruption journaled %d trials, want partial coverage", len(journal))
	}

	resumed := noRetention()
	resumed.Resume = journal
	before := st.Resumes.Load()
	got, err := runner.Run(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if st.Resumes.Load() == before {
		t.Error("resumed run never resumed a trial from a checkpoint")
	}
	faulttest.RequireIdentical(t, "resumed skipping run", base.Fault, got.Fault)
	if want := base.Fault.Completed - len(journal); got.Executed != want {
		t.Errorf("resumed run executed %d trials, want %d", got.Executed, want)
	}
}
