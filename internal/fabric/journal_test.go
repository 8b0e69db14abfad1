package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
