package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/journal"
	"vsresil/internal/virat"
)

// toyBuild is the WorkloadBuilder every node in these tests shares;
// the Algorithm field keys the toy workload exactly the way real specs
// key VS variants.
func toyBuild(cs CampaignSpec) (campaign.Workload, error) {
	if cs.Algorithm != "toy" {
		return DefaultWorkload(cs)
	}
	return campaign.NewWorkload("toy", "toy", faulttest.ToyApp), nil
}

func toyWireSpec() CampaignSpec {
	return CampaignSpec{
		Algorithm: "toy",
		Class:     "gpr",
		Trials:    60,
		Seed:      7,
		Workers:   2,
		KeepSDC:   true,
		MaxSDC:    3,
	}
}

// singleNode runs the wire spec unsharded in one process — the ground
// truth every cluster result must be bit-identical to.
func singleNode(t *testing.T, cs CampaignSpec) *campaign.Result {
	t.Helper()
	w, err := toyBuild(cs)
	if err != nil {
		t.Fatalf("build workload: %v", err)
	}
	spec, err := cs.Spec(w)
	if err != nil {
		t.Fatalf("translate spec: %v", err)
	}
	var runner campaign.Runner
	res, err := runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	return res
}

// serveCoordinator starts a coordinator behind an HTTP test server,
// both closed when the test ends, and returns a client of it.
func serveCoordinator(t *testing.T, cfg Config) (*Coordinator, *Client) {
	t.Helper()
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return coord, &Client{Base: srv.URL}
}

// runLiveWorkers starts workers live-1 and live-2 against the server
// at base. The returned stop cancels them and waits until they exit: a
// straggler (a thief still running a stolen shard) may still be
// executing when the campaign is done.
func runLiveWorkers(base string, build WorkloadBuilder, poll time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	for _, name := range []string{"live-1", "live-2"} {
		w := &Worker{ID: name, Client: &Client{Base: base}, Workload: build, Poll: poll}
		workers.Add(1)
		go func() {
			defer workers.Done()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		workers.Wait()
	}
}

// waitDone polls until the campaign reaches a terminal state.
func waitDone(t *testing.T, c *Coordinator, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		switch st.State {
		case campDone:
			return
		case campFailed:
			t.Fatalf("campaign failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("campaign did not finish in 30s")
}

// executeLease runs a lease's plans to completion locally and returns
// the ShardResult a worker would ship — the synchronous core of
// Worker.runLease, used where tests need deterministic completion
// order.
func executeLease(t *testing.T, l Lease, worker string) ShardResult {
	t.Helper()
	if len(l.Plans) == 0 {
		t.Fatalf("lease %s of %s carries no plans", l.ID, l.Campaign)
	}
	w, err := toyBuild(l.Spec)
	if err != nil {
		t.Fatalf("build workload: %v", err)
	}
	spec, err := l.Spec.Spec(w)
	if err != nil {
		t.Fatalf("translate spec: %v", err)
	}
	var runner campaign.Runner
	res, err := runner.RunPlans(context.Background(), spec, l.Plans, l.PlanLo)
	if err != nil {
		t.Fatalf("run lease %s: %v", l.ID, err)
	}
	out := ShardResult{Worker: worker, Lease: l.ID, Campaign: l.Campaign, Shard: l.ShardIndex}
	for i := range res.Fault.Trials {
		tr := &res.Fault.Trials[i]
		out.Recs = append(out.Recs, tr.Record(l.PlanLo+i))
		if tr.Output != nil {
			out.SDC = append(out.SDC, SDCOutput{Index: l.PlanLo + i, Data: tr.Output})
		}
	}
	return out
}

// leaseWait asks for a lease until one is granted: the round driver
// publishes a campaign's plans asynchronously, after Submit and after a
// restart.
func leaseWait(t *testing.T, c *Coordinator, worker string) Lease {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, ok, err := c.Lease(worker)
		if err != nil {
			t.Fatalf("lease for %s: %v", worker, err)
		}
		if ok {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lease for %s within 10s", worker)
		}
		time.Sleep(time.Millisecond)
	}
}

func metricValue(t *testing.T, c *Coordinator, name string) int {
	t.Helper()
	var buf bytes.Buffer
	c.WriteMetrics(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		var v int
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, buf.String())
	return 0
}

// TestClusterEquivalence is the headline acceptance property: a
// campaign executed by a real HTTP cluster — two live workers plus one
// that takes a lease and dies without ever heartbeating — merges
// bit-identically to the single-node run, with the dead worker's shard
// reassigned after its lease expires.
func TestClusterEquivalence(t *testing.T) {
	coord, client := serveCoordinator(t, Config{LeaseTTL: 50 * time.Millisecond, Workload: toyBuild})
	cs := toyWireSpec()
	id, err := client.Submit(context.Background(), cs, 5)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The doomed worker grabs one shard (once the round driver has
	// published it) and is never heard from again; its lease must expire
	// and the shard reach a live worker. Waiting for the expiry before
	// any live worker exists makes the kill path deterministic
	// (otherwise a thief can duplicate the shard first).
	leaseDeadline := time.Now().Add(10 * time.Second)
	for {
		_, ok, err := client.Lease(context.Background(), "doomed")
		if err != nil {
			t.Fatalf("doomed worker lease: %v", err)
		}
		if ok {
			break
		}
		if time.Now().After(leaseDeadline) {
			t.Fatal("doomed worker was never granted a lease")
		}
		time.Sleep(time.Millisecond)
	}
	expiryDeadline := time.Now().Add(5 * time.Second)
	for metricValue(t, coord, "vsd_fabric_leases_expired_total") == 0 {
		if time.Now().After(expiryDeadline) {
			t.Fatal("doomed worker's lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop := runLiveWorkers(client.Base, toyBuild, 10*time.Millisecond)
	waitDone(t, coord, id)
	stop()

	merged, err := coord.Merged(id)
	if err != nil {
		t.Fatalf("merged result: %v", err)
	}
	base := singleNode(t, cs)
	faulttest.RequireIdentical(t, "cluster", base.Fault, merged.Fault)

	if n := metricValue(t, coord, "vsd_fabric_leases_expired_total"); n < 1 {
		t.Errorf("leases_expired_total = %d, want >= 1 (the doomed worker's)", n)
	}

	// The wire result renders the same aggregates.
	res, err := client.Result(context.Background(), id)
	if err != nil {
		t.Fatalf("wire result: %v", err)
	}
	if res.Completed != base.Fault.Completed || res.Trials != cs.Trials {
		t.Errorf("wire result completed=%d trials=%d, want %d/%d",
			res.Completed, res.Trials, base.Fault.Completed, cs.Trials)
	}
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		if res.Counts[o.String()] != base.Fault.Counts[o] {
			t.Errorf("wire count %v = %d, want %d", o, res.Counts[o.String()], base.Fault.Counts[o])
		}
	}
}

// TestClusterEquivalenceBatching runs the real staged VS workload —
// the one whose golden checkpoints feed the bucket scheduler — through
// a live cluster and demands the merge stay bit-identical to a default
// single-node run. The toy workload above is unstaged and never enters
// the batched path; this is the variant that proves checkpoint-bucket
// execution survives shard decomposition over the wire.
func TestClusterEquivalenceBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster batching equivalence is not -short")
	}
	cs := CampaignSpec{
		Algorithm: "VS",
		Class:     "gpr",
		Scale:     "test",
		Frames:    6,
		Trials:    24,
		Seed:      0x5EED5,
		Workers:   2,
		KeepSDC:   true,
		MaxSDC:    3,
	}

	base := singleNode(t, cs)

	coord, client := serveCoordinator(t, Config{Workload: DefaultWorkload})
	id, err := client.Submit(context.Background(), cs, 3)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stop := runLiveWorkers(client.Base, nil, 10*time.Millisecond)
	waitDone(t, coord, id)
	stop()

	merged, err := coord.Merged(id)
	if err != nil {
		t.Fatalf("merged result: %v", err)
	}
	// Scheduler statistics are node-local and do not cross the wire
	// (shards ship trial records, and the coordinator rebuilds results
	// through the resume path), so only the campaign observables are
	// compared here; TestCampaignBatchingSchedStats covers the stats.
	faulttest.RequireIdentical(t, "cluster vs single-node", base.Fault, merged.Fault)
}

// identityGoldenDigest is the identity cell's pinned golden digest
// (FNV-64a of the encoded panoramas), the constant the root package's
// TestIdentityCellPinnedDigest anchors.
const identityGoldenDigest = 0x8a7474734a0ab448

// TestIdentityCellFabricEquivalence closes the identity chain over the
// wire: the identity spec (the all-defaults registry cell on the
// 8-frame Input 2 test preset) submitted to an in-process coordinator
// with two live HTTP workers merges bit-identically to the local run
// of the cell, golden bytes still on the pinned digest.
func TestIdentityCellFabricEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric identity equivalence is not -short")
	}
	t.Parallel()
	cs := CampaignSpec{
		Class:   "gpr",
		Input:   2,
		Scale:   "test",
		Frames:  8,
		Trials:  40,
		Seed:    0x5EED5,
		Workers: 2,
	}
	p := virat.TestScale()
	p.Frames = cs.Frames
	w, err := campaign.Cell{}.Workload(cs.Input, p, cs.Seed)
	if err != nil {
		t.Fatalf("identity cell workload: %v", err)
	}
	var runner campaign.Runner
	base, err := runner.Run(context.Background(), campaign.Spec{
		Workload: w, Class: fault.GPR, Region: fault.RAny,
		Trials: cs.Trials, Seed: cs.Seed, Workers: cs.Workers,
	})
	if err != nil {
		t.Fatalf("local identity campaign: %v", err)
	}

	coord, client := serveCoordinator(t, Config{Workload: DefaultWorkload})
	id, err := client.Submit(context.Background(), cs, 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stop := runLiveWorkers(client.Base, nil, 10*time.Millisecond)
	waitDone(t, coord, id)
	stop()

	merged, err := coord.Merged(id)
	if err != nil {
		t.Fatalf("merged result: %v", err)
	}
	faulttest.RequireIdentical(t, "fabric cluster vs local", base.Fault, merged.Fault)
	h := fnv.New64a()
	h.Write(merged.Fault.GoldenOutput)
	if d := h.Sum64(); d != identityGoldenDigest {
		t.Errorf("cluster golden digest = %#016x, want %#016x", d, uint64(identityGoldenDigest))
	}
}

// TestCoordinatorRestart closes a coordinator mid-campaign and reopens
// it on the same journal: completed shards must not be re-leased, and
// the campaign must finish bit-identical to the single-node run.
func TestCoordinatorRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	cs := toyWireSpec()

	c1, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	id, err := c1.Submit(cs, 4)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Complete two shards, then die.
	doneShards := map[int]bool{}
	for i := 0; i < 2; i++ {
		l := leaseWait(t, c1, "a")
		doneShards[l.ShardIndex] = true
		if accepted, err := c1.Complete(executeLease(t, l, "a")); err != nil || !accepted {
			t.Fatalf("complete shard %d: accepted=%v err=%v", l.ShardIndex, accepted, err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}
	defer c2.Close()
	st, err := c2.Status(id)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if st.ShardsDone != 2 || st.TrialsDone != 30 {
		t.Fatalf("restart replayed %d shards / %d trials done, want 2 / 30", st.ShardsDone, st.TrialsDone)
	}
	// The remaining leases must cover exactly the two unfinished shards.
	for i := 0; i < 2; i++ {
		l := leaseWait(t, c2, "b")
		if doneShards[l.ShardIndex] {
			t.Fatalf("restarted coordinator re-leased completed shard %d", l.ShardIndex)
		}
		if accepted, err := c2.Complete(executeLease(t, l, "b")); err != nil || !accepted {
			t.Fatalf("complete shard %d: accepted=%v err=%v", l.ShardIndex, accepted, err)
		}
	}
	if _, ok, err := c2.Lease("b"); err != nil || ok {
		t.Fatalf("lease after all shards done: ok=%v err=%v, want no work", ok, err)
	}

	waitDone(t, c2, id)
	merged, err := c2.Merged(id)
	if err != nil {
		t.Fatalf("merged result: %v", err)
	}
	faulttest.RequireIdentical(t, "restarted", singleNode(t, cs).Fault, merged.Fault)
}

// TestCoordinatorRestartStaticJournal replays a journal written in the
// format static campaigns have always used — a campaign record with
// shards:4, two shard results, one live lease and no round record —
// and requires the round driver to adopt it: two shards done, the done
// shards never leased again, and a result bit-identical to the
// single-node run.
func TestCoordinatorRestartStaticJournal(t *testing.T) {
	cs := toyWireSpec() // 60 trials: shards [0,15) [15,30) [30,45) [45,60)
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
	// shardLine renders shard i's completion the way a worker's result
	// was journaled: plan-indexed records plus the retained SDC bytes.
	shardLine := func(i int) string {
		lo, hi := i*15, (i+1)*15
		res := executeLease(t, Lease{ID: "x", Campaign: "c1", Spec: cs, ShardIndex: i, PlanLo: lo, PlanHi: hi, Plans: round.Plans[lo:hi]}, "a")
		recs, _ := json.Marshal(res.Recs)
		sdc, _ := json.Marshal(res.SDC)
		return fmt.Sprintf(`{"op":"shard","campaign":"c1","shard":%d,"recs":%s,"sdc":%s}`, i, recs, sdc)
	}
	specJSON, _ := json.Marshal(cs)
	live := time.Now().Add(time.Hour).UTC().Format(time.RFC3339Nano)
	journal := strings.Join([]string{
		fmt.Sprintf(`{"op":"campaign","campaign":"c1","spec":%s,"shards":4}`, specJSON),
		fmt.Sprintf(`{"op":"lease","campaign":"c1","lease":"l1","shard":1,"worker":"a","deadline":%q}`, live),
		shardLine(1),
		fmt.Sprintf(`{"op":"lease","campaign":"c1","lease":"l2","shard":3,"worker":"a","deadline":%q}`, live),
		shardLine(3),
		fmt.Sprintf(`{"op":"lease","campaign":"c1","lease":"l3","shard":2,"worker":"b","deadline":%q}`, live),
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "fabric.journal")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}

	c, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator on hand-written journal: %v", err)
	}
	defer c.Close()
	st, err := c.Status("c1")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.ShardsDone != 2 || st.ShardsTotal != 4 || st.TrialsDone != 30 {
		t.Fatalf("replayed %d/%d shards and %d trials done, want 2/4 and 30", st.ShardsDone, st.ShardsTotal, st.TrialsDone)
	}
	// A new worker gets the unleased shard 0, then steals b's live shard
	// 2; the done shards 1 and 3 never come back.
	leases := []Lease{leaseWait(t, c, "c")}
	for {
		l, ok, err := c.Lease("c")
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if !ok {
			break
		}
		leases = append(leases, l)
	}
	got := map[int]bool{}
	for _, l := range leases {
		if l.ShardIndex == 1 || l.ShardIndex == 3 {
			t.Fatalf("replayed coordinator re-leased done shard %d", l.ShardIndex)
		}
		got[l.ShardIndex] = true
		if accepted, err := c.Complete(executeLease(t, l, "c")); err != nil || !accepted {
			t.Fatalf("complete shard %d: accepted=%v err=%v", l.ShardIndex, accepted, err)
		}
	}
	if !got[0] || !got[2] {
		t.Fatalf("leased shards %v, want 0 and 2", got)
	}
	waitDone(t, c, "c1")
	merged, err := c.Merged("c1")
	if err != nil {
		t.Fatalf("merged result: %v", err)
	}
	faulttest.RequireIdentical(t, "hand-written journal", singleNode(t, cs).Fault, merged.Fault)
}

// TestLeaseExpiry: a worker that takes a shard and goes silent loses
// it — the next asking worker gets the same shard back.
func TestLeaseExpiry(t *testing.T) {
	c, err := NewCoordinator(Config{LeaseTTL: 50 * time.Millisecond, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	cs := toyWireSpec()
	if _, err := c.Submit(cs, 2); err != nil {
		t.Fatalf("submit: %v", err)
	}
	l1 := leaseWait(t, c, "silent")
	time.Sleep(120 * time.Millisecond) // two TTLs, no heartbeat

	if c.Heartbeat("silent", l1.ID, 3) {
		t.Error("heartbeat on an expired lease reported alive")
	}
	// Both shards are grantable again; one of the two fresh leases must
	// re-cover the expired shard.
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		l, ok, err := c.Lease("fresh")
		if err != nil || !ok {
			t.Fatalf("re-lease %d: ok=%v err=%v", i, ok, err)
		}
		got[l.ShardIndex] = true
	}
	if !got[l1.ShardIndex] {
		t.Errorf("expired shard %d was never re-leased (got %v)", l1.ShardIndex, got)
	}
	if n := metricValue(t, c, "vsd_fabric_leases_expired_total"); n < 1 {
		t.Errorf("leases_expired_total = %d, want >= 1", n)
	}
}

// TestWorkStealing: when every shard is leased, an idle worker
// duplicates the lease with the most remaining trials; whichever copy
// completes first wins and the duplicate is discarded.
func TestWorkStealing(t *testing.T) {
	c, err := NewCoordinator(Config{LeaseTTL: time.Minute, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	cs := toyWireSpec()
	id, err := c.Submit(cs, 2) // shards [0,30) and [30,60)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	la := leaseWait(t, c, "a")
	lb, ok, _ := c.Lease("a")
	if !ok {
		t.Fatal("worker a got no second lease")
	}
	// a is far along on its first shard, barely started on the second.
	c.Heartbeat("a", la.ID, 25)
	c.Heartbeat("a", lb.ID, 5)

	stolen, ok, err := c.Lease("thief")
	if err != nil || !ok {
		t.Fatalf("thief lease: ok=%v err=%v", ok, err)
	}
	if stolen.ShardIndex != lb.ShardIndex {
		t.Fatalf("thief got shard %d, want the laggard %d", stolen.ShardIndex, lb.ShardIndex)
	}
	if n := metricValue(t, c, "vsd_fabric_leases_stolen_total"); n != 1 {
		t.Errorf("leases_stolen_total = %d, want 1", n)
	}
	// a's own other shard is never offered back to a.
	if _, ok, _ := c.Lease("a"); ok {
		t.Error("worker a was offered a duplicate of its own lease")
	}

	// The straggler and the thief both finish the contested shard; the
	// first journaled completion wins, the duplicate is discarded.
	contested := executeLease(t, lb, "a")
	if accepted, err := c.Complete(contested); err != nil || !accepted {
		t.Fatalf("first completion: accepted=%v err=%v", accepted, err)
	}
	dup := executeLease(t, stolen, "thief")
	if accepted, err := c.Complete(dup); err != nil || accepted {
		t.Fatalf("duplicate completion: accepted=%v err=%v, want discarded", accepted, err)
	}
	if n := metricValue(t, c, "vsd_fabric_duplicate_results_total"); n != 1 {
		t.Errorf("duplicate_results_total = %d, want 1", n)
	}

	if accepted, err := c.Complete(executeLease(t, la, "a")); err != nil || !accepted {
		t.Fatalf("final completion: accepted=%v err=%v", accepted, err)
	}
	waitDone(t, c, id)
	merged, err := c.Merged(id)
	if err != nil {
		t.Fatalf("merged result: %v", err)
	}
	faulttest.RequireIdentical(t, "stolen", singleNode(t, cs).Fault, merged.Fault)
}

// TestShardResultValidation: results that do not tile their window are
// rejected before they can poison the merge.
func TestShardResultValidation(t *testing.T) {
	c, err := NewCoordinator(Config{Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	if _, err := c.Submit(toyWireSpec(), 2); err != nil {
		t.Fatalf("submit: %v", err)
	}
	l := leaseWait(t, c, "a")
	res := executeLease(t, l, "a")
	res.Recs = res.Recs[:len(res.Recs)-1] // drop one trial
	if _, err := c.Complete(res); err == nil {
		t.Error("short shard result accepted")
	}
	res2 := executeLease(t, l, "a")
	res2.Recs[0].Index += 1 // mis-window: first index duplicated with second
	if _, err := c.Complete(res2); err == nil {
		t.Error("mis-indexed shard result accepted")
	}
}

// TestSubmitRejectsUnknownSpecFields: a misspelt knob on the campaign
// submit endpoint is a 400, not a campaign silently run at the
// knob's default. The worker protocol endpoints stay lenient.
func TestSubmitRejectsUnknownSpecFields(t *testing.T) {
	_, client := serveCoordinator(t, Config{Workload: toyBuild})
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(client.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/fabric/campaigns", `{"spec":{"adaptive":true,"precison":0.01}}`); code != http.StatusBadRequest {
		t.Errorf("misspelt spec field: status %d, want 400", code)
	}
	if code := post("/v1/fabric/campaigns", `{"spec":{"trials":8},"shards":1,"priority":3}`); code != http.StatusBadRequest {
		t.Errorf("unknown request field: status %d, want 400", code)
	}
	if code := post("/v1/fabric/campaigns", `{"spec":{"trials":8},"shards":1}`); code != http.StatusAccepted {
		t.Errorf("valid submission: status %d, want 202", code)
	}
	if code := post("/v1/fabric/lease", `{"worker":"w","capabilities":["gpr"]}`); code == http.StatusBadRequest {
		t.Error("lease request with an unknown field was rejected")
	}
}

// TestCompactJournalKeepsOldOnError: a coordinator snapshot record
// that cannot be encoded fails the startup compaction and leaves the
// live journal untouched, instead of renaming a truncated snapshot over
// it. internal/journal's TestRewriteKeepsOldOnError covers the shared
// rewrite for both daemons.
func TestCompactJournalKeepsOldOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	live := []byte(`{"op":"campaign","campaign":"c1","spec":{"algorithm":"toy","class":"gpr","trials":60},"shards":2}` + "\n")
	if err := os.WriteFile(path, live, 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	good := newCamp("c1", toyWireSpec(), 2)
	bad := adaptiveWireSpec()
	bad.Precision = math.NaN() // JSON cannot encode NaN
	if _, err := journal.Open(path, snapshotRecords([]*camp{good, newCamp("c2", bad, 2)})); err == nil {
		t.Fatal("compaction of an unencodable snapshot reported success")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if !bytes.Equal(got, live) {
		t.Errorf("failed compaction replaced the live journal:\n%s", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed compaction left its snapshot behind (stat err %v)", err)
	}
}
