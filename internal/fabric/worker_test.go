package fabric

import (
	"context"
	"testing"
	"time"

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
	coord, client := serveCoordinator(t, Config{Workload: toyBuild})
	if _, err := coord.Submit(cs, 2); err != nil {
		t.Fatalf("submit: %v", err)
	}

	w := &Worker{ID: "w", Client: client}
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

// TestDuplicateLeaseAbandoned: a thief running a stolen shard learns
// within its poll interval that the copy it raced completed, abandons
// the run and ships no duplicate result — although its lease TTL, and
// so its regular heartbeat, is minutes long. The progress it reported
// before losing is not counted on top of the shard's trials.
func TestDuplicateLeaseAbandoned(t *testing.T) {
	coord, client := serveCoordinator(t, Config{LeaseTTL: 3 * time.Minute, Workload: toyBuild})
	cs := toyWireSpec()
	cs.Workers = 1
	if _, err := coord.Submit(cs, 1); err != nil {
		t.Fatalf("submit: %v", err)
	}
	orig := leaseWait(t, coord, "a")
	if orig.Duplicate {
		t.Fatal("the first lease on a shard is marked duplicate")
	}

	// The thief's trials take 20ms each, so its copy of the 60-trial
	// shard would run for over a second.
	slow := func(cs CampaignSpec) (campaign.Workload, error) {
		w, err := toyBuild(cs)
		app := w.App
		w.App = func(m *fault.Machine) ([]byte, error) {
			time.Sleep(20 * time.Millisecond)
			return app(m)
		}
		return w, err
	}
	leases := make(chan Lease, 4)
	thief := &Worker{
		ID: "thief", Client: client, Workload: slow, Poll: 5 * time.Millisecond,
		OnLease: func(l Lease) { leases <- l },
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		thief.Run(ctx)
	}()
	defer func() {
		cancel()
		<-exited
	}()

	stolen := <-leases
	if !stolen.Duplicate || stolen.ShardIndex != orig.ShardIndex {
		t.Fatalf("thief lease on shard %d duplicate=%v, want a duplicate of shard %d", stolen.ShardIndex, stolen.Duplicate, orig.ShardIndex)
	}
	// Only the thief heartbeats, so any progress is its own.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := coord.Status(orig.Campaign)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.TrialsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the thief reported no progress within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if accepted, err := coord.Complete(executeLease(t, orig, "a")); err != nil || !accepted {
		t.Fatalf("original completion: accepted=%v err=%v", accepted, err)
	}

	// A second, small campaign has only the thief to run it, so once it
	// is done the thief is through with its duplicate either way.
	next := toyWireSpec()
	next.Trials, next.Seed, next.Workers = 4, 8, 1
	id, err := coord.Submit(next, 1)
	if err != nil {
		t.Fatalf("submit second campaign: %v", err)
	}
	waitDone(t, coord, id)
	if n := metricValue(t, coord, "vsd_fabric_duplicate_results_total"); n != 0 {
		t.Errorf("duplicate_results_total = %d, want 0: the thief finished a shard that was already done", n)
	}
	if n := metricValue(t, coord, "vsd_fabric_leases_stolen_total"); n != 1 {
		t.Errorf("leases_stolen_total = %d, want 1", n)
	}
	if n := metricValue(t, coord, "vsd_fabric_trials_total"); n != cs.Trials+next.Trials {
		t.Errorf("trials_total = %d, want the two campaigns' %d", n, cs.Trials+next.Trials)
	}
}
