package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fabric"
	"vsresil/internal/fault"
)

// fabricToyApp is a tiny deterministic workload for cluster tests —
// the fabric package proves bit-identity on it; here we only exercise
// the daemon seam (mounting, metrics, lifecycle).
func fabricToyApp(m *fault.Machine) ([]byte, error) {
	buf := make([]uint8, 32)
	out := make([]uint8, 32)
	n := m.Cnt(len(buf))
	if n < 0 || n > len(buf) {
		return nil, errors.New("toy: invalid length")
	}
	for i := 0; i < n; i++ {
		out[m.Idx(i)] = m.Pix(uint8(i * 5))
	}
	return out, nil
}

func fabricToyBuild(cs fabric.CampaignSpec) (campaign.Workload, error) {
	return campaign.NewWorkload("toy", "svc-toy", fabricToyApp), nil
}

// TestFabricMountedOnService drives a cluster campaign end to end
// through the daemon's own HTTP handler: the fabric API is served next
// to the job API, a worker executes the shards, and /metrics reports
// the fabric gauges.
func TestFabricMountedOnService(t *testing.T) {
	coord, err := fabric.NewCoordinator(fabric.Config{
		LeaseTTL: time.Second,
		Workload: fabricToyBuild,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { coord.Close() })

	svc := newTestService(t, Config{Workers: 1, Fabric: coord})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := fabric.CampaignSpec{Algorithm: "toy", Class: "gpr", Trials: 24, Seed: 3}
	cl := &fabric.Client{Base: ts.URL}
	id, err := cl.Submit(context.Background(), spec, 3)
	if err != nil {
		t.Fatalf("submit via service handler: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &fabric.Worker{
		ID:       "w1",
		Client:   &fabric.Client{Base: ts.URL},
		Workload: fabricToyBuild,
		Poll:     10 * time.Millisecond,
	}
	go w.Run(ctx)

	waitFor(t, 30*time.Second, "cluster campaign to finish", func() bool {
		st, err := cl.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == "failed" {
			t.Fatalf("campaign failed: %s", st.Error)
		}
		return st.State == "done"
	})

	res, err := cl.Result(context.Background(), id)
	if err != nil {
		t.Fatalf("result via service handler: %v", err)
	}
	if res.Completed != spec.Trials || res.Shards != 3 {
		t.Errorf("result completed=%d shards=%d, want %d/3", res.Completed, res.Shards, spec.Trials)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{"vsd_fabric_workers_alive", "vsd_fabric_shards_done 3", "vsd_fabric_campaigns{state=\"done\"} 1"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
}

// TestJournalRuntimeCompaction: with a small CompactEvery, a campaign
// that appends hundreds of checkpoint records leaves a journal sized
// by live state, not history — and the compacted journal still replays
// to the finished job.
func TestJournalRuntimeCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vsd.journal")
	svc := newTestService(t, Config{
		Workers:         1,
		JournalPath:     path,
		CheckpointEvery: 1, // one journal record per trial
		CompactEvery:    8,
	})
	st, err := svc.Enqueue(testCampaignSpec(60))
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	waitFor(t, 120*time.Second, "campaign to finish", func() bool {
		got, err := svc.Get(st.ID)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		return got.State.terminal()
	})
	// The worker journals the terminal state (and may compact) after
	// the job turns terminal; stop it before reading the file or opening
	// a second service on it, as a restart would.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.Count(data, []byte("\n"))
	// 60 trials at CheckpointEvery=1 would append 60+ records; the
	// rewrite folds them into a handful of snapshot lines plus at most
	// CompactEvery stragglers.
	if lines > 8+4 {
		t.Errorf("journal has %d lines after compaction, want <= %d", lines, 8+4)
	}

	// The compacted journal must still replay to the same terminal job.
	svc2 := newTestService(t, Config{Workers: 1, JournalPath: path})
	got, err := svc2.Get(st.ID)
	if err != nil {
		t.Fatalf("job missing after replaying compacted journal: %v", err)
	}
	if got.State != StateDone {
		t.Errorf("replayed job state = %s, want done", got.State)
	}
	raw, err := svc2.Result(st.ID)
	if err != nil {
		t.Fatalf("replayed result: %v", err)
	}
	var res map[string]any
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("replayed result does not parse: %v", err)
	}
}
