package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

// TestWorkerSessionReuse pins the lease-to-lease amortization for both
// campaign kinds: successive round-shard leases of one campaign share
// the cached executor session — for static campaigns too, whose leases
// used to build a fresh executor each — and a lease for a different
// campaign rolls the cache over, retiring the old session.
func TestWorkerSessionReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec CampaignSpec
	}{
		{"adaptive", adaptiveWireSpec()},
		{"static", toyWireSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testCachedSessionRollover(t, tc.spec)
			testLeasesShareSession(t, tc.spec)
		})
	}
}

// testCachedSessionRollover drives the session cache directly.
func testCachedSessionRollover(t *testing.T, cs CampaignSpec) {
	runner := &campaign.Runner{Goldens: campaign.NewGoldenCache(4)}
	c := &workerSessions{runner: runner, build: toyBuild}
	defer c.close()

	s1, err := c.acquire(Lease{ID: "l1", Campaign: "c1", Spec: cs})
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	s2, err := c.acquire(Lease{ID: "l2", Campaign: "c1", Spec: cs})
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if s2 != s1 {
		t.Error("second lease of the same campaign did not reuse the cached session")
	}

	other := cs
	other.Seed = 99
	s3, err := c.acquire(Lease{ID: "l3", Campaign: "c2", Spec: other})
	if err != nil {
		t.Fatalf("rollover acquire: %v", err)
	}
	if s3 == s1 {
		t.Fatal("different campaign was served the old session")
	}
	// The rollover must have closed the retired session: a window run
	// on it is refused before any trial executes.
	if _, err := s1.sess.Run(context.Background(), fault.Config{Plans: []fault.Plan{{}}}); err == nil {
		t.Error("retired session still accepts plan windows")
	}
	// The live session still executes.
	class, _ := fault.ParseClass(other.Class)
	plans := fault.GeneratePlans(other.Seed, class, fault.RAny,
		fault.WindowFor(class, 0), 4, s3.sess.Golden().Taps(class, fault.RAny))
	res, err := s3.sess.Run(context.Background(), fault.Config{Plans: plans})
	if err != nil {
		t.Fatalf("live session window: %v", err)
	}
	if res.Completed != len(plans) {
		t.Errorf("live session completed %d trials, want %d", res.Completed, len(plans))
	}
	if got := s3.done.Load(); got != int64(len(plans)) {
		t.Errorf("session trial counter = %d, want %d", got, len(plans))
	}
}

// testLeasesShareSession runs two real leases of one campaign through
// one worker's runLease: both must execute on a single session.
func testLeasesShareSession(t *testing.T, cs CampaignSpec) {
	coord, err := NewCoordinator(Config{Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if _, err := coord.Submit(cs, 2); err != nil {
		t.Fatalf("submit: %v", err)
	}

	w := &Worker{ID: "w", Client: &Client{Base: srv.URL}}
	sessions := &workerSessions{runner: &campaign.Runner{}, build: toyBuild}
	defer sessions.close()
	var first *leaseSession
	planned := 0
	for i := 0; i < 2; i++ {
		l := leaseWait(t, coord, w.ID)
		planned += len(l.Plans)
		w.runLease(context.Background(), sessions, l)
		if i == 0 {
			first = sessions.cur
		}
	}
	if first == nil || sessions.cur != first {
		t.Fatal("the second lease of the campaign did not run on the first lease's session")
	}
	if got := first.sess.Stats().RoundsServed; got != 2 {
		t.Errorf("cached session served %d plan windows, want both leases' 2", got)
	}
	if got := first.done.Load(); got != int64(planned) {
		t.Errorf("session trial counter = %d, want both leases' %d trials", got, planned)
	}
	if done := metricValue(t, coord, "vsd_fabric_shards_done"); done != 2 {
		t.Errorf("coordinator accepted %d shard results, want 2", done)
	}
}
