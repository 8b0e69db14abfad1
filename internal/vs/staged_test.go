package vs

import (
	"testing"

	"vsresil/internal/fault"
)

// TestResumeReportsOwnBoundaryFirst checks that a guarded resume from
// any golden checkpoint reports that checkpoint's own boundary before
// any other: the first guard call carries the checkpoint's name. A
// stage-timing decorator attributes a resumed suffix from that first
// call on, so a resume that skipped it would leave its leading stage
// unattributed; the campaign guard ignores the call because the plan is
// still unresolved there.
func TestResumeReportsOwnBoundaryFirst(t *testing.T) {
	app := New(DefaultConfig(AlgVS), 8)
	staged := app.Staged(inputFrames(t, 8)).(fault.BatchStagedApp)
	golden, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range golden.Checkpoints {
		var first string
		calls := 0
		_, _, err := staged.ResumeGuarded(fault.New(), cp.State, staged.PrepareResume(cp.State), func(name string, _ any) bool {
			if calls == 0 {
				first = name
			}
			calls++
			return false
		})
		if err != nil {
			t.Fatalf("%s: resume: %v", cp.Name, err)
		}
		if calls == 0 || first != cp.Name {
			t.Errorf("resume from %s: first guard call %q (of %d), want %q", cp.Name, first, calls, cp.Name)
		}
	}
}
