package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vsresil/internal/plan"
)

// adaptiveJobSpec is a small confidence-driven campaign: loose targets
// and a hard cap keep it in the same runtime class as the fixed
// 60-trial test campaigns.
func adaptiveJobSpec() JobSpec {
	return JobSpec{
		Type: JobCampaign,
		Campaign: &CampaignSpec{
			InputSpec:  InputSpec{Input: 2, Scale: "test", Frames: 6},
			Algorithm:  "VS",
			Class:      "gpr",
			Adaptive:   true,
			Precision:  0.15,
			Confidence: 0.9,
			MaxTrials:  150,
			Seed:       7,
		},
	}
}

func TestAdaptiveCampaignJob(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	job := postJob(t, ts, adaptiveJobSpec())
	waitFor(t, 120*time.Second, "adaptive job done", func() bool {
		st := getStatus(t, ts, job.ID)
		if st.State == StateFailed {
			t.Fatalf("adaptive job failed: %s", st.Error)
		}
		return st.State == StateDone
	})

	var cr CampaignResult
	getResult(t, ts, job.ID, &cr)
	if !cr.Adaptive {
		t.Error("result not marked adaptive")
	}
	if cr.Precision != 0.15 || cr.Confidence != 0.9 {
		t.Errorf("result targets = %v/%v, want 0.15/0.9", cr.Precision, cr.Confidence)
	}
	if cr.Rounds == 0 || cr.Trials == 0 {
		t.Errorf("adaptive result rounds=%d trials=%d, want both > 0", cr.Rounds, cr.Trials)
	}
	if cr.Trials > 150 {
		t.Errorf("adaptive spent %d trials, cap was 150", cr.Trials)
	}
	if cr.FixedBudget <= 0 {
		t.Errorf("fixed budget %d, want > 0", cr.FixedBudget)
	}
	if len(cr.Strata) == 0 {
		t.Fatal("adaptive result has no strata")
	}
	total := 0
	for _, s := range cr.Strata {
		if s.Population == 0 {
			t.Errorf("stratum %s/%s has zero population", s.Region, s.Bits)
		}
		total += s.Trials
	}
	if total != cr.Trials {
		t.Errorf("per-stratum trials sum to %d, result says %d", total, cr.Trials)
	}

	st := getStatus(t, ts, job.ID)
	if st.Progress.Done != cr.Trials || st.Progress.Total != cr.Trials {
		t.Errorf("progress = %+v, want %d/%d", st.Progress, cr.Trials, cr.Trials)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"vsd_campaign_round_campaigns_total 1",
		"vsd_campaign_round_count_total",
		"vsd_campaign_round_trials_total",
		"vsd_campaign_stratum_half_width{class=\"GPR\",",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The executor-session series duplicated the round series or
	// counted a cache no production workload fills; they are gone.
	if strings.Contains(string(body), "vsd_campaign_session_") {
		t.Errorf("/metrics still exports vsd_campaign_session_* series:\n%s", body)
	}
}

// TestAdaptiveDefaultsReported: an adaptive job that leaves precision
// and confidence to the planner reports the targets the planner
// actually used, consistent with the fixed-budget baseline it
// computed from them.
func TestAdaptiveDefaultsReported(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	spec := adaptiveJobSpec()
	spec.Campaign.Precision = 0
	spec.Campaign.Confidence = 0
	spec.Campaign.MaxTrials = 60
	st, err := svc.Enqueue(spec)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	waitFor(t, 120*time.Second, "defaulted adaptive job done", func() bool {
		s, _ := svc.Get(st.ID)
		if s.State == StateFailed {
			t.Fatalf("adaptive job failed: %s", s.Error)
		}
		return s.State == StateDone
	})
	raw, err := svc.Result(st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var cr CampaignResult
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Precision != 0.05 || cr.Confidence != 0.95 {
		t.Errorf("result targets = %v/%v, want the planner defaults 0.05/0.95", cr.Precision, cr.Confidence)
	}
	if want := plan.FixedBudget(cr.Precision, cr.Confidence, len(cr.Strata)); cr.FixedBudget != want {
		t.Errorf("fixed budget %d, want %d for the reported targets", cr.FixedBudget, want)
	}
}

func TestAdaptiveSpecValidationService(t *testing.T) {
	fixed := func(c *CampaignSpec) {
		c.Adaptive = false
		c.Trials = 10
		c.Precision, c.Confidence, c.MaxTrials = 0, 0, 0
	}
	for name, tc := range map[string]struct {
		mutate func(*CampaignSpec)
		want   string
	}{
		"precision too wide":  {func(c *CampaignSpec) { c.Precision = 0.5 }, "outside [0, 0.5)"},
		"negative precision":  {func(c *CampaignSpec) { c.Precision = -0.1 }, "outside [0, 0.5)"},
		"confidence at one":   {func(c *CampaignSpec) { c.Confidence = 1 }, "outside [0, 1)"},
		"negative round size": {func(c *CampaignSpec) { c.RoundSize = -1 }, "round_size"},
		"precision without adaptive": {func(c *CampaignSpec) {
			fixed(c)
			c.Precision = 0.1
		}, "adaptive knobs"},
		"confidence without adaptive": {func(c *CampaignSpec) {
			fixed(c)
			c.Confidence = 0.9
		}, "adaptive knobs"},
		"round size without adaptive": {func(c *CampaignSpec) {
			fixed(c)
			c.RoundSize = 16
		}, "adaptive knobs"},
		"max trials without adaptive": {func(c *CampaignSpec) {
			fixed(c)
			c.MaxTrials = 100
		}, "adaptive knobs"},
	} {
		spec := adaptiveJobSpec()
		tc.mutate(spec.Campaign)
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", name, err, tc.want)
		}
	}
	plain := adaptiveJobSpec()
	fixed(plain.Campaign)
	if err := plain.Validate(); err != nil {
		t.Errorf("fixed-budget spec rejected: %v", err)
	}
	ok := adaptiveJobSpec()
	ok.Campaign.Precision = 0
	ok.Campaign.Confidence = 0
	if err := ok.Validate(); err != nil {
		t.Errorf("defaulted adaptive spec rejected: %v", err)
	}
}
