package campaign

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vsresil/internal/fault"
)

// runShards executes each window of toySpec()'s k-way split of its
// static round independently, the way RunSharded's sub-windows run,
// and returns the per-window results in plan order.
func runShards(t *testing.T, k int) []*Result {
	t.Helper()
	var runner Runner
	spec := toySpec()
	sess, err := runner.OpenSession(spec)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer sess.Close()
	planner, err := spec.NewPlanner(sess.Golden())
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	round, _ := planner.Next()
	n := len(round.Plans)
	results := make([]*Result, k)
	for i := range results {
		lo, hi := i*n/k, (i+1)*n/k
		r, err := sess.runWindow(context.Background(), spec, round.Plans[lo:hi], lo, n)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, k, err)
		}
		results[i] = r
	}
	return results
}

// TestMergeShardSetError checks that a broken decomposition fails with
// a *ShardSetError naming the exact plan-index windows to repair, not
// just the first violation. toySpec's 60 trials split 3 ways into
// [0,20) [20,40) [40,60).
func TestMergeShardSetError(t *testing.T) {
	results := runShards(t, 3)

	_, err := Merge(results[0], results[2])
	var se *ShardSetError
	if !errors.As(err, &se) {
		t.Fatalf("merge with a missing shard: got %v, want *ShardSetError", err)
	}
	if se.PlanTrials != 60 {
		t.Errorf("PlanTrials = %d, want 60", se.PlanTrials)
	}
	if want := [][2]int{{20, 40}}; !reflect.DeepEqual(se.Missing, want) {
		t.Errorf("Missing = %v, want %v", se.Missing, want)
	}
	if len(se.Overlaps) != 0 {
		t.Errorf("Overlaps = %v, want none", se.Overlaps)
	}
	if msg := err.Error(); !strings.Contains(msg, "[20,40)") {
		t.Errorf("error %q does not name the missing window", msg)
	}

	// A duplicated shard is both a gap (its donor window is unclaimed)
	// and an overlap.
	se = nil
	_, err = Merge(results[1], results[1], results[2])
	if !errors.As(err, &se) {
		t.Fatalf("merge with a duplicated shard: got %v, want *ShardSetError", err)
	}
	if want := [][2]int{{0, 20}}; !reflect.DeepEqual(se.Missing, want) {
		t.Errorf("Missing = %v, want %v", se.Missing, want)
	}
	if want := [][2]int{{20, 40}}; !reflect.DeepEqual(se.Overlaps, want) {
		t.Errorf("Overlaps = %v, want %v", se.Overlaps, want)
	}

	// A trailing gap is reported up to the plan-space end.
	se = nil
	_, err = Merge(results[0])
	if !errors.As(err, &se) {
		t.Fatalf("merge of one shard: got %v, want *ShardSetError", err)
	}
	if want := [][2]int{{20, 60}}; !reflect.DeepEqual(se.Missing, want) {
		t.Errorf("Missing = %v, want %v", se.Missing, want)
	}
}

// TestPartialMergeAggregates feeds partialMerge the typical
// interruption shape — some shards reported, some never did (nil) —
// and checks the best-effort aggregate: summed counts and histograms,
// concatenated trials, no rate curve, no bit-identity pretensions.
func TestPartialMergeAggregates(t *testing.T) {
	results := runShards(t, 3)
	parts := []*Result{results[0], nil, results[2]} // shard 1 lost

	got := partialMerge(toySpec(), parts)
	if got == nil || got.Fault == nil {
		t.Fatal("partialMerge returned nil for a set with live parts")
	}
	alive := []*Result{results[0], results[2]}

	wantCompleted := 0
	for _, p := range alive {
		wantCompleted += p.Fault.Completed
	}
	if got.Fault.Completed != wantCompleted {
		t.Errorf("Completed = %d, want %d", got.Fault.Completed, wantCompleted)
	}
	counted := 0
	for o, n := range got.Fault.Counts {
		counted += n
		want := 0
		for _, p := range alive {
			want += p.Fault.Counts[o]
		}
		if n != want {
			t.Errorf("Counts[%v] = %d, want %d", fault.Outcome(o), n, want)
		}
	}
	if counted != wantCompleted {
		t.Errorf("counts sum to %d, completed %d", counted, wantCompleted)
	}
	for i, n := range got.Fault.RegHist.Counts {
		if want := alive[0].Fault.RegHist.Counts[i] + alive[1].Fault.RegHist.Counts[i]; n != want {
			t.Errorf("RegHist[%d] = %d, want %d", i, n, want)
		}
	}
	if want := len(alive[0].Fault.Trials) + len(alive[1].Fault.Trials); len(got.Fault.Trials) != want {
		t.Errorf("kept %d trials, want %d", len(got.Fault.Trials), want)
	}
	if want := alive[0].Executed + alive[1].Executed; got.Executed != want {
		t.Errorf("Executed = %d, want %d", got.Executed, want)
	}
	if len(got.Fault.Curve.Snapshots) != 0 {
		t.Errorf("partial merge produced %d rate-curve snapshots, want none", len(got.Fault.Curve.Snapshots))
	}
}

// TestPartialMergeEmpty: a shard set where nothing reported yields nil,
// the signal that there is nothing to say about the campaign.
func TestPartialMergeEmpty(t *testing.T) {
	if got := partialMerge(toySpec(), nil); got != nil {
		t.Errorf("partialMerge(nil parts) = %v, want nil", got)
	}
	if got := partialMerge(toySpec(), []*Result{nil, nil, nil}); got != nil {
		t.Errorf("partialMerge(all-nil parts) = %v, want nil", got)
	}
}
