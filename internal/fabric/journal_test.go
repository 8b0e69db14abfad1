package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/journal"
)

// TestCoordinatorCorruptJournal: a damaged line with records after it
// is corruption, not a torn write. The coordinator refuses to start
// instead of silently dropping the shard result it held (which would
// re-run that work) or, had the damage hit a campaign line, the whole
// campaign.
func TestCoordinatorCorruptJournal(t *testing.T) {
	specJSON, _ := json.Marshal(toyWireSpec())
	live := time.Now().Add(time.Hour).UTC().Format(time.RFC3339Nano)
	data := strings.Join([]string{
		fmt.Sprintf(`{"op":"campaign","campaign":"c1","spec":%s,"shards":4}`, specJSON),
		fmt.Sprintf(`{"op":"lease","campaign":"c1","lease":"l1","shard":1,"worker":"a","deadline":%q}`, live),
		`{"op":"shard","campaign":"c1","shard":1,"recs":[{"i":15,"o"`,
		fmt.Sprintf(`{"op":"lease","campaign":"c1","lease":"l2","shard":2,"worker":"a","deadline":%q}`, live),
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "fabric.journal")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	c, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err == nil {
		c.Close()
		t.Fatal("coordinator started on a journal corrupt at line 3")
	}
	if !strings.Contains(err.Error(), path+":3:") {
		t.Errorf("error %q does not name %s:3", err, path)
	}
	if got, _ := os.ReadFile(path); string(got) != data {
		t.Error("failed startup rewrote the corrupt journal")
	}
}

// TestReplayDropsForgedOutcome: a journaled shard record whose outcome
// is outside the four classes (a forged or corrupt completion) is
// dropped on replay instead of reaching the adaptive planner, whose
// per-outcome counts it would index out of range. The restarted
// coordinator leases the shard again and finishes on the single-node
// trial set.
func TestReplayDropsForgedOutcome(t *testing.T) {
	cs := adaptiveWireSpec()
	base := localAdaptive(t, cs)
	w, err := toyBuild(cs)
	if err != nil {
		t.Fatalf("build workload: %v", err)
	}
	spec, err := cs.Spec(w)
	if err != nil {
		t.Fatalf("translate spec: %v", err)
	}
	var runner campaign.Runner
	golden, err := runner.GoldenFor(w)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	planner, err := spec.NewPlanner(golden)
	if err != nil {
		t.Fatalf("planner: %v", err)
	}
	round, _ := planner.Next()
	n := len(round.Plans)
	forged := append([]fault.TrialRecord(nil), base.Records[:n]...)
	forged[n/2].Outcome = 200

	specJSON, _ := json.Marshal(cs)
	recsJSON, _ := json.Marshal(forged)
	data := strings.Join([]string{
		fmt.Sprintf(`{"op":"campaign","campaign":"c1","spec":%s,"shards":1}`, specJSON),
		fmt.Sprintf(`{"op":"round","campaign":"c1","windows":[[0,%d]]}`, n),
		fmt.Sprintf(`{"op":"shard","campaign":"c1","recs":%s}`, recsJSON),
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "fabric.journal")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	c, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	drainAdaptive(t, c, "c1", "a")
	recs, err := c.AdaptiveRecords("c1")
	if err != nil {
		t.Fatalf("adaptive records: %v", err)
	}
	if !reflect.DeepEqual(recs, base.Records) {
		t.Error("trial records diverge from baseline after replaying a forged shard")
	}
}

// TestReplayLegacyFixedBudgetKnobs: earlier coordinators accepted the
// adaptive-only precision, confidence, round_size and max_trials on a
// fixed-budget campaign and ignored them. A journal holding such
// campaigns still replays: the done one keeps its result and the
// running one finishes bit-identical to the single-node run.
func TestReplayLegacyFixedBudgetKnobs(t *testing.T) {
	cs := toyWireSpec()
	legacy := cs
	legacy.Precision, legacy.Confidence, legacy.RoundSize, legacy.MaxTrials = 0.1, 0.9, 8, 500
	specJSON, _ := json.Marshal(legacy)
	data := strings.Join([]string{
		fmt.Sprintf(`{"op":"campaign","campaign":"c1","spec":%s,"shards":2}`, specJSON),
		`{"op":"state","campaign":"c1","state":"done","result":{"completed":60}}`,
		fmt.Sprintf(`{"op":"campaign","campaign":"c2","spec":%s,"shards":2}`, specJSON),
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "fabric.journal")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	c, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	if raw, err := c.Result("c1"); err != nil || string(raw) != `{"completed":60}` {
		t.Fatalf("legacy done campaign result %s, %v", raw, err)
	}
	for i := 0; i < 2; i++ {
		l := leaseWait(t, c, "a")
		if accepted, err := c.Complete(executeLease(t, l, "a")); err != nil || !accepted {
			t.Fatalf("complete shard %d: accepted=%v err=%v", l.ShardIndex, accepted, err)
		}
	}
	waitDone(t, c, "c2")
	merged, err := c.Merged("c2")
	if err != nil {
		t.Fatalf("merged result: %v", err)
	}
	faulttest.RequireIdentical(t, "legacy fixed-budget campaign", singleNode(t, cs).Fault, merged.Fault)
}

// TestCoordinatorJournalFailure closes the journal underneath a running
// coordinator: a completion that cannot be committed is refused and its
// shard stays undone (to be leased and run again, never acknowledged
// and lost), and Submit and Lease refuse too, with a server error over
// HTTP.
func TestCoordinatorJournalFailure(t *testing.T) {
	c, err := NewCoordinator(Config{JournalPath: filepath.Join(t.TempDir(), "fabric.journal"), Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	id, err := c.Submit(toyWireSpec(), 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res := executeLease(t, leaseWait(t, c, "a"), "a")

	c.journal.Close()
	accepted, err := c.Complete(res)
	if accepted || !errors.Is(err, journal.ErrWrite) {
		t.Fatalf("complete on a closed journal: accepted=%v err=%v, want a journal.ErrWrite refusal", accepted, err)
	}
	if st, _ := c.Status(id); st.ShardsDone != 0 {
		t.Errorf("uncommitted shard counted done: %+v", st)
	}
	if _, err := c.Submit(toyWireSpec(), 2); !errors.Is(err, journal.ErrWrite) {
		t.Errorf("submit on a closed journal: err %v, want journal.ErrWrite", err)
	}
	_, _, err = c.Lease("b")
	if !errors.Is(err, journal.ErrWrite) {
		t.Errorf("lease on a closed journal: err %v, want journal.ErrWrite", err)
	}
	rec := httptest.NewRecorder()
	writeFabricError(rec, err)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("HTTP status %d for a journal failure, want 500", rec.Code)
	}
}

// TestPackedRecordsRoundTrip checks the finished-campaign record
// packing: every outcome, crash kind and Landed combination unpacks to
// the record it packed, and records that do not tile the plan indices
// from zero, or carry a value the byte cannot hold, are refused.
func TestPackedRecordsRoundTrip(t *testing.T) {
	var recs []fault.TrialRecord
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		for k := fault.CrashNone; k <= fault.CrashAbort; k++ {
			for _, landed := range []bool{false, true} {
				recs = append(recs, fault.TrialRecord{Index: len(recs), Outcome: o, Crash: k, Landed: landed})
			}
		}
	}
	p, err := packRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != len(recs) {
		t.Fatalf("packed %d records into %d bytes", len(recs), len(p))
	}
	if got := p.unpack(); !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip: got %v, want %v", got, recs)
	}
	if packedRecords(nil).unpack() != nil {
		t.Error("nil packed records unpack to a non-nil slice")
	}
	for name, bad := range map[string]fault.TrialRecord{
		"gap":     {Index: 1},
		"outcome": {Outcome: fault.NumOutcomes},
		"crash":   {Crash: fault.CrashAbort + 1},
	} {
		if _, err := packRecords([]fault.TrialRecord{bad}); err == nil {
			t.Errorf("%s: packed without error", name)
		}
	}
}
