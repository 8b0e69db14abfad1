package fabric

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"vsresil/internal/journal"
)

// TestOversizeShardResultFailsCampaign: a shard result whose journal
// record would exceed journal.MaxRecordBytes can never be committed,
// and every later run of the deterministic shard rebuilds the same
// bytes. Complete must therefore fail the campaign — an error naming
// the shard and the limit, a journaled failed state that survives a
// restart, no further leases and a 413 over HTTP — instead of leaving
// the shard to be leased again forever.
func TestOversizeShardResultFailsCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	c, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	id, err := c.Submit(toyWireSpec(), 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res := executeLease(t, leaseWait(t, c, "a"), "a")
	// Forge a retained SDC output at every plan index of the shard, all
	// sharing one buffer, so the record's base64 encoding (4/3 of the
	// raw bytes) passes the limit while the test holds little memory.
	buf := make([]byte, journal.MaxRecordBytes*3/(4*len(res.Recs))+4096)
	res.SDC = res.SDC[:0]
	for _, rec := range res.Recs {
		res.SDC = append(res.SDC, SDCOutput{Index: rec.Index, Data: buf})
	}
	_, err = c.Complete(res)
	want := fmt.Sprintf("shard %d exceeds %d bytes", res.Shard, journal.MaxRecordBytes)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("oversize completion: got %v, want an error containing %q", err, want)
	}
	rec := httptest.NewRecorder()
	writeFabricError(rec, err)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize completion answers %d, want 413", rec.Code)
	}
	st, err := c.Status(id)
	if err != nil || st.State != campFailed || !strings.Contains(st.Error, want) {
		t.Fatalf("campaign after oversize completion: %+v (err %v), want failed with %q", st, err, want)
	}
	if l, ok, err := c.Lease("b"); err != nil || ok {
		t.Fatalf("failed campaign still leases work: %+v ok=%v err=%v", l, ok, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer c2.Close()
	if st, err := c2.Status(id); err != nil || st.State != campFailed || !strings.Contains(st.Error, want) {
		t.Fatalf("replayed campaign: %+v (err %v), want failed with %q", st, err, want)
	}
}
