package fault_test

import (
	"context"
	"reflect"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
)

// retainedSDCIndices returns the trial indices whose SDC output bytes
// were kept.
func retainedSDCIndices(res *fault.Result) []int {
	var kept []int
	for i := range res.Trials {
		if res.Trials[i].Output != nil {
			kept = append(kept, i)
		}
	}
	return kept
}

// TestSDCRetentionDeterministic pins the MaxSDCOutputs contract: the
// retained subset is the lowest-index SDC trials, independent of
// worker count and completion order.
func TestSDCRetentionDeterministic(t *testing.T) {
	run := func(workers int) *fault.Result {
		res, err := runCampaign(context.Background(), fault.SessionConfig{
			App: faulttest.ToyApp, Class: fault.GPR, Region: fault.RAny,
			Workers: workers, KeepSDCOutputs: true, MaxSDCOutputs: 2,
		}, 300, 11)
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		return res
	}
	serial := run(1)
	kept := retainedSDCIndices(serial)
	if len(kept) == 0 {
		t.Fatal("campaign produced no retained SDC outputs; pick a different seed")
	}
	if len(kept) > 2 {
		t.Fatalf("retained %d outputs, cap is 2", len(kept))
	}
	// The serial run completes trials in order, so its retained set is
	// the lowest-index SDCs by construction; every parallel schedule
	// must converge on the same set.
	var lowest []int
	for i := range serial.Trials {
		if serial.Trials[i].Outcome == fault.OutcomeSDC {
			lowest = append(lowest, i)
			if len(lowest) == 2 {
				break
			}
		}
	}
	if !reflect.DeepEqual(kept, lowest) {
		t.Errorf("serial retention %v is not the lowest-index SDC set %v", kept, lowest)
	}
	for _, workers := range []int{2, 8} {
		parallel := run(workers)
		if got := retainedSDCIndices(parallel); !reflect.DeepEqual(got, kept) {
			t.Errorf("workers=%d retained %v, want %v", workers, got, kept)
		}
	}
}
