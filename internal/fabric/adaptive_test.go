package fabric

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

func adaptiveWireSpec() CampaignSpec {
	return CampaignSpec{
		Algorithm:  "toy",
		Class:      "fpr",
		Seed:       23,
		Workers:    2,
		Adaptive:   true,
		Precision:  0.05,
		Confidence: 0.95,
	}
}

// localAdaptive runs the wire spec through the single-node adaptive
// engine — the ground truth the cluster's trial set must match.
func localAdaptive(t *testing.T, cs CampaignSpec) *campaign.AdaptiveResult {
	t.Helper()
	w, err := toyBuild(cs)
	if err != nil {
		t.Fatalf("build workload: %v", err)
	}
	class, err := fault.ParseClass(cs.Class)
	if err != nil {
		t.Fatalf("parse class: %v", err)
	}
	region, err := fault.ParseRegion(cs.Region)
	if err != nil {
		t.Fatalf("parse region: %v", err)
	}
	var runner campaign.Runner
	res, err := runner.RunAdaptive(context.Background(), campaign.Spec{
		Workload: w,
		Class:    class,
		Region:   region,
		Seed:     cs.Seed,
		Workers:  cs.Workers,
		Adaptive: &campaign.AdaptiveSpec{
			Precision:  cs.Precision,
			Confidence: cs.Confidence,
			RoundSize:  cs.RoundSize,
			MaxTrials:  cs.MaxTrials,
		},
	}, 1)
	if err != nil {
		t.Fatalf("local adaptive run: %v", err)
	}
	return res
}

// drainAdaptive plays a synchronous single worker against the
// coordinator until the campaign terminates: lease, execute, complete.
func drainAdaptive(t *testing.T, c *Coordinator, id, worker string) {
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
		l, ok, err := c.Lease(worker)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if !ok {
			time.Sleep(time.Millisecond) // driver between rounds
			continue
		}
		if _, err := c.Complete(executeLease(t, l, worker)); err != nil {
			t.Fatalf("complete: %v", err)
		}
	}
	t.Fatal("adaptive campaign did not finish in 30s")
}

// TestClusterAdaptiveEquivalence is the adaptive acceptance property:
// a confidence-driven campaign executed by a live HTTP cluster lands
// on the byte-identical trial set the single-node RunAdaptive draws,
// converges on every stratum, and beats the fixed budget by >= 5x.
func TestClusterAdaptiveEquivalence(t *testing.T) {
	cs := adaptiveWireSpec()
	base := localAdaptive(t, cs)
	if !base.Converged {
		t.Fatalf("baseline did not converge in %d trials", base.Trials)
	}

	coord, err := NewCoordinator(Config{Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &Client{Base: srv.URL}

	id, err := client.Submit(context.Background(), cs, 3)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, name := range []string{"live-1", "live-2"} {
		w := &Worker{
			ID:       name,
			Client:   &Client{Base: srv.URL},
			Workload: toyBuild,
			Poll:     5 * time.Millisecond,
		}
		go w.Run(ctx)
	}
	waitDone(t, coord, id)
	cancel()

	recs, err := coord.AdaptiveRecords(id)
	if err != nil {
		t.Fatalf("adaptive records: %v", err)
	}
	if !reflect.DeepEqual(recs, base.Records) {
		t.Error("cluster trial records diverge from single-node baseline")
	}

	res, err := client.Result(context.Background(), id)
	if err != nil {
		t.Fatalf("wire result: %v", err)
	}
	if res.Trials != base.Trials || res.Rounds != base.Rounds || !res.Converged {
		t.Errorf("wire result trials=%d rounds=%d converged=%v, want %d/%d/true",
			res.Trials, res.Rounds, res.Converged, base.Trials, base.Rounds)
	}
	if res.Trials*5 > res.FixedBudget {
		t.Errorf("adaptive spent %d trials vs fixed budget %d — want >= 5x savings",
			res.Trials, res.FixedBudget)
	}
	for _, s := range res.Strata {
		if !s.Done {
			t.Errorf("stratum %s/%s not at target (half-width %.4f)", s.Region, s.Bits, s.HalfWidth)
		}
	}
}

// TestClusterAdaptiveFanoutInvariance: the observed trial set is
// identical for every round-shard count.
func TestClusterAdaptiveFanoutInvariance(t *testing.T) {
	cs := adaptiveWireSpec()
	base := localAdaptive(t, cs)
	for _, fanout := range []int{1, 4} {
		c, err := NewCoordinator(Config{Workload: toyBuild})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		id, err := c.Submit(cs, fanout)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		drainAdaptive(t, c, id, "solo")
		recs, err := c.AdaptiveRecords(id)
		if err != nil {
			t.Fatalf("adaptive records: %v", err)
		}
		if !reflect.DeepEqual(recs, base.Records) {
			t.Errorf("fanout=%d: cluster trial records diverge from baseline", fanout)
		}
		c.Close()
	}
}

// TestCoordinatorRestartAdaptive closes the coordinator after the
// bootstrap round and replays the journal: the restarted round driver
// must fold the journaled shards without re-executing them and finish
// on the identical trial set.
func TestCoordinatorRestartAdaptive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	cs := adaptiveWireSpec()
	base := localAdaptive(t, cs)

	c1, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	id, err := c1.Submit(cs, 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Complete the two bootstrap round-shards, then die.
	completed := 0
	deadline := time.Now().Add(30 * time.Second)
	for completed < 2 && time.Now().Before(deadline) {
		l, ok, err := c1.Lease("a")
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if _, err := c1.Complete(executeLease(t, l, "a")); err != nil {
			t.Fatalf("complete: %v", err)
		}
		completed++
	}
	if completed != 2 {
		t.Fatal("bootstrap round never fully leased")
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, err := NewCoordinator(Config{JournalPath: path, Workload: toyBuild})
	if err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}
	defer c2.Close()
	drainAdaptive(t, c2, id, "b")
	recs, err := c2.AdaptiveRecords(id)
	if err != nil {
		t.Fatalf("adaptive records: %v", err)
	}
	if !reflect.DeepEqual(recs, base.Records) {
		t.Error("restarted cluster's trial records diverge from baseline")
	}
	res, err := c2.Result(id)
	if err != nil {
		t.Fatalf("wire result after restart: %v", err)
	}
	if !strings.Contains(string(res), "\"converged\":true") {
		t.Errorf("journaled wire result not converged: %s", res)
	}
}

// TestForgedOutcomeRejected: a shard result carrying an outcome outside
// the four classes is refused before it is journaled, the coordinator
// keeps running (the adaptive planner indexes its counts by outcome),
// and the campaign still finishes on the single-node trial set.
func TestForgedOutcomeRejected(t *testing.T) {
	cs := adaptiveWireSpec()
	base := localAdaptive(t, cs)
	c, err := NewCoordinator(Config{JournalPath: filepath.Join(t.TempDir(), "fabric.journal"), Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	id, err := c.Submit(cs, 1)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res := executeLease(t, leaseWait(t, c, "a"), "a")
	res.Recs[0].Outcome = 200
	if _, err := c.Complete(res); err == nil || !strings.Contains(err.Error(), "invalid outcome") {
		t.Fatalf("forged outcome: got %v, want invalid-outcome error", err)
	}
	drainAdaptive(t, c, id, "b")
	recs, err := c.AdaptiveRecords(id)
	if err != nil {
		t.Fatalf("adaptive records: %v", err)
	}
	if !reflect.DeepEqual(recs, base.Records) {
		t.Error("trial records diverge from baseline after a rejected forgery")
	}
}

// TestAdaptiveSpecValidation: the wire-level precision/confidence
// checks reject malformed adaptive specs, and non-adaptive specs still
// require a trial budget and carry no adaptive knobs.
func TestAdaptiveSpecValidation(t *testing.T) {
	c, err := NewCoordinator(Config{Workload: toyBuild})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	bad := adaptiveWireSpec()
	bad.Precision = 0.7
	if _, err := c.Submit(bad, 1); err == nil {
		t.Error("precision 0.7 accepted")
	}
	bad = adaptiveWireSpec()
	bad.Confidence = 1.5
	if _, err := c.Submit(bad, 1); err == nil {
		t.Error("confidence 1.5 accepted")
	}
	nonAdaptive := adaptiveWireSpec()
	nonAdaptive.Adaptive = false
	if _, err := c.Submit(nonAdaptive, 1); err == nil {
		t.Error("non-adaptive spec without trials accepted")
	}
	for name, knob := range map[string]func(*CampaignSpec){
		"precision":  func(cs *CampaignSpec) { cs.Precision = 0.1 },
		"confidence": func(cs *CampaignSpec) { cs.Confidence = 0.9 },
		"round_size": func(cs *CampaignSpec) { cs.RoundSize = 16 },
		"max_trials": func(cs *CampaignSpec) { cs.MaxTrials = 100 },
	} {
		fixed := toyWireSpec()
		knob(&fixed)
		if err := fixed.Validate(); err == nil || !strings.Contains(err.Error(), "adaptive knobs") {
			t.Errorf("fixed-budget spec with %s: got %v, want adaptive-knob error", name, err)
		}
	}
	for name, tc := range map[string]struct {
		knob func(*CampaignSpec)
		want string
	}{
		"negative precision":  {func(cs *CampaignSpec) { cs.Precision = -0.1 }, "outside [0, 0.5)"},
		"precision at half":   {func(cs *CampaignSpec) { cs.Precision = 0.5 }, "outside [0, 0.5)"},
		"confidence at one":   {func(cs *CampaignSpec) { cs.Confidence = 1 }, "outside [0, 1)"},
		"negative confidence": {func(cs *CampaignSpec) { cs.Confidence = -0.5 }, "outside [0, 1)"},
	} {
		spec := adaptiveWireSpec()
		tc.knob(&spec)
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", name, err, tc.want)
		}
	}
	// A zero-knob adaptive spec is valid: the planner defaults apply.
	ok := CampaignSpec{Algorithm: "toy", Class: "fpr", Seed: 1, Adaptive: true}
	if err := ok.Validate(); err != nil {
		t.Errorf("defaulted adaptive spec rejected: %v", err)
	}

	// Over-bound counts are refused at submit with a 400, before any
	// campaign exists: planning one would allocate every plan at once.
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for name, spec := range map[string]string{
		"trials":      `{"algorithm":"toy","trials":2000000000}`,
		"max_trials":  `{"algorithm":"toy","adaptive":true,"max_trials":2000000000}`,
		"round_size":  `{"algorithm":"toy","adaptive":true,"round_size":2000000000}`,
		"default cap": `{"algorithm":"toy","adaptive":true,"precision":0.0001}`,
		"frames":      `{"algorithm":"toy","trials":10,"frames":20000}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/fabric/campaigns", "application/json",
			strings.NewReader(`{"spec":`+spec+`,"shards":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("over-bound %s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if n := metricValue(t, c, "vsd_fabric_shards_total"); n != 0 {
		t.Errorf("rejected submissions created %d shards", n)
	}
	if _, err := c.Status("c1"); !errors.Is(err, ErrNoCampaign) {
		t.Errorf("a rejected submission registered campaign c1 (status err %v)", err)
	}
}
