package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// testCampaignSpec is the shared small campaign the tests run: big
// enough to interrupt mid-flight, small enough to finish in seconds.
func testCampaignSpec(trials int) JobSpec {
	return JobSpec{
		Type: JobCampaign,
		Campaign: &CampaignSpec{
			InputSpec: InputSpec{Input: 2, Scale: "test", Frames: 6},
			Algorithm: "VS",
			Class:     "gpr",
			Trials:    trials,
			Seed:      7,
		},
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- HTTP helpers ----------------------------------------------------

func postJob(t *testing.T, ts *httptest.Server, spec any) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/jobs status %d: %v", resp.StatusCode, e)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func getResult(t *testing.T, ts *httptest.Server, id string, into any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode result: %v", err)
	}
}

// --- tests -----------------------------------------------------------

func TestEnqueueRunResultRoundTrip(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sum := postJob(t, ts, JobSpec{
		Type: JobSummarize,
		Summarize: &SummarizeSpec{
			InputSpec:  InputSpec{Input: 1, Scale: "test", Frames: 8},
			Algorithm:  "VS_RFD",
			IncludePGM: true,
		},
	})
	camp := postJob(t, ts, testCampaignSpec(60))

	waitFor(t, 60*time.Second, "both jobs done", func() bool {
		return getStatus(t, ts, sum.ID).State == StateDone &&
			getStatus(t, ts, camp.ID).State == StateDone
	})

	var sr SummarizeResult
	getResult(t, ts, sum.ID, &sr)
	if sr.Algorithm != "VS_RFD" || sr.Frames != 8 {
		t.Errorf("summarize result header = %q/%d frames", sr.Algorithm, sr.Frames)
	}
	if len(sr.Panoramas) == 0 {
		t.Error("summarize produced no panoramas")
	}
	if sr.PrimaryPGM == "" {
		t.Error("include_pgm did not return the panorama")
	}
	raw, err := base64.StdEncoding.DecodeString(sr.PrimaryPGM)
	if err != nil {
		t.Fatalf("primary_pgm base64: %v", err)
	}
	if _, err := imgproc.ReadPGM(bytes.NewReader(raw)); err != nil {
		t.Errorf("primary_pgm is not a valid PGM: %v", err)
	}

	var cr CampaignResult
	getResult(t, ts, camp.ID, &cr)
	if cr.Completed != 60 {
		t.Errorf("campaign completed %d trials, want 60", cr.Completed)
	}
	total := 0
	for _, n := range cr.Counts {
		total += n
	}
	if total != 60 {
		t.Errorf("outcome counts sum to %d, want 60", total)
	}
	st := getStatus(t, ts, camp.ID)
	if st.Progress.Done != 60 || st.Progress.Total != 60 {
		t.Errorf("campaign progress = %+v, want 60/60", st.Progress)
	}
}

func TestSummarizeUploadedPGMFrames(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	p := virat.TestScale()
	p.Frames = 6
	var encoded []string
	for _, f := range virat.Input1(p).Frames() {
		var buf bytes.Buffer
		if err := imgproc.WritePGM(&buf, f); err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, base64.StdEncoding.EncodeToString(buf.Bytes()))
	}
	st := postJob(t, ts, JobSpec{
		Type:      JobSummarize,
		Summarize: &SummarizeSpec{InputSpec: InputSpec{FramesPGM: encoded}},
	})
	waitFor(t, 60*time.Second, "uploaded-frames job done", func() bool {
		return getStatus(t, ts, st.ID).State == StateDone
	})
	var sr SummarizeResult
	getResult(t, ts, st.ID, &sr)
	if sr.Frames != 6 || !strings.HasPrefix(sr.Input, "uploaded") {
		t.Errorf("result = %d frames from %q, want 6 uploaded", sr.Frames, sr.Input)
	}
	if len(sr.Panoramas) == 0 {
		t.Error("no panoramas from uploaded frames")
	}
}

func TestCancelMidCampaign(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	st := postJob(t, ts, testCampaignSpec(100000))
	waitFor(t, 60*time.Second, "campaign making progress", func() bool {
		s := getStatus(t, ts, st.ID)
		return s.State == StateRunning && s.Progress.Done > 0
	})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	waitFor(t, 60*time.Second, "campaign canceled", func() bool {
		return getStatus(t, ts, st.ID).State == StateCanceled
	})
	s := getStatus(t, ts, st.ID)
	if s.Progress.Done >= s.Progress.Total {
		t.Errorf("canceled campaign reports full progress %+v", s.Progress)
	}
	// The result endpoint must refuse: the job never produced one.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of canceled job returned status %d, want 409", resp.StatusCode)
	}
}

func TestJournalReplayResumesCampaign(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "vsd.journal")
	const trials = 400
	spec := testCampaignSpec(trials)

	// First life: start the campaign, wait for some progress, then
	// drain — simulating kill -TERM mid-campaign.
	svcA, err := New(Config{Workers: 1, JournalPath: journalPath, CheckpointEvery: 5})
	if err != nil {
		t.Fatalf("service A: %v", err)
	}
	stA, err := svcA.Enqueue(spec)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	waitFor(t, 60*time.Second, "campaign progress before shutdown", func() bool {
		s, _ := svcA.Get(stA.ID)
		return s.Progress.Done >= 25
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := svcA.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown A: %v", err)
	}
	cancel()

	// Second life: replay the journal; the job must resume from its
	// checkpoint, not restart.
	svcB := newTestService(t, Config{Workers: 1, JournalPath: journalPath, CheckpointEvery: 5})
	s, err := svcB.Get(stA.ID)
	if err != nil {
		t.Fatalf("job %s lost across restart: %v", stA.ID, err)
	}
	if s.Progress.Done < 25 {
		t.Errorf("replayed progress %d, want >= 25 (checkpoint lost)", s.Progress.Done)
	}
	waitFor(t, 120*time.Second, "resumed campaign done", func() bool {
		s, _ := svcB.Get(stA.ID)
		return s.State == StateDone
	})
	raw, err := svcB.Result(stA.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var cr CampaignResult
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Resumed == 0 {
		t.Error("campaign did not resume from checkpoint (Resumed == 0)")
	}
	if cr.Completed != trials {
		t.Errorf("resumed campaign completed %d, want %d", cr.Completed, trials)
	}

	// Seeded determinism across the interruption: the resumed result
	// must match a cold, uninterrupted run of the identical campaign.
	cold := coldCampaign(t, spec.Campaign)
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		if cr.Counts[o.String()] != cold.Counts[o] {
			t.Errorf("outcome %s: resumed %d, cold %d", o, cr.Counts[o.String()], cold.Counts[o])
		}
	}
}

// coldCampaign runs testCampaignSpec's fixed-budget campaign
// uninterrupted and in full execution, outside the service: the
// reference a resumed job's counts must match.
func coldCampaign(t *testing.T, spec *CampaignSpec) *fault.Result {
	t.Helper()
	p := virat.TestScale()
	p.Frames = 6
	frames := virat.Input2(p).Frames()
	vcfg := vs.DefaultConfig(vs.AlgVS)
	vcfg.Seed = spec.Seed
	app := vs.New(vcfg, len(frames))
	var runner campaign.Runner
	cold, err := runner.Run(context.Background(), campaign.Spec{
		Workload: campaign.NewWorkload("cold", "", app.RunEncoded(frames)),
		Class:    fault.GPR,
		Region:   fault.RAny,
		Trials:   spec.Trials,
		Seed:     spec.Seed,
	})
	if err != nil {
		t.Fatalf("cold campaign: %v", err)
	}
	return cold.Fault
}

func TestPriorityOrdering(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Occupy the single worker, then enqueue low before high: the
	// high-priority job must finish first.
	blocker := postJob(t, ts, testCampaignSpec(200))
	low := postJob(t, ts, JobSpec{
		Type:      JobSummarize,
		Priority:  1,
		Summarize: &SummarizeSpec{InputSpec: InputSpec{Scale: "test", Frames: 4}},
	})
	high := postJob(t, ts, JobSpec{
		Type:      JobSummarize,
		Priority:  9,
		Summarize: &SummarizeSpec{InputSpec: InputSpec{Scale: "test", Frames: 4}},
	})
	waitFor(t, 120*time.Second, "all three jobs done", func() bool {
		for _, id := range []string{blocker.ID, low.ID, high.ID} {
			if getStatus(t, ts, id).State != StateDone {
				return false
			}
		}
		return true
	})
	lowSt := getStatus(t, ts, low.ID)
	highSt := getStatus(t, ts, high.ID)
	if lowSt.StartedAt == nil || highSt.StartedAt == nil {
		t.Fatal("missing start times")
	}
	if highSt.StartedAt.After(*lowSt.StartedAt) {
		t.Errorf("high-priority job started at %v, after low-priority %v",
			highSt.StartedAt, lowSt.StartedAt)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"bad-type":       `{"type":"transcode"}`,
		"missing-spec":   `{"type":"campaign"}`,
		"zero-trials":    `{"type":"campaign","campaign":{"trials":0}}`,
		"legacy-shards":  `{"type":"campaign","campaign":{"trials":10,"shards":3}}`,
		"fixed-max":      `{"type":"campaign","campaign":{"trials":10,"max_trials":50}}`,
		"bad-algorithm":  `{"type":"summarize","summarize":{"algorithm":"VS_XX"}}`,
		"bad-class":      `{"type":"campaign","campaign":{"trials":10,"class":"vpr"}}`,
		"bad-fig":        `{"type":"experiment","experiment":{"fig":""}}`,
		"unknown-field":  `{"type":"summarize","summarize":{},"bogus":1}`,
		"malformed-json": `{"type":`,
		// Over-bound counts: each would allocate or run far past what the
		// process can hold, so none may reach the queue.
		"over-trials":             `{"type":"campaign","campaign":{"trials":2000000000}}`,
		"over-max-trials":         `{"type":"campaign","campaign":{"adaptive":true,"max_trials":2000000000}}`,
		"over-round-size":         `{"type":"campaign","campaign":{"adaptive":true,"round_size":2000000000}}`,
		"over-default-cap":        `{"type":"campaign","campaign":{"adaptive":true,"precision":0.0001}}`,
		"over-frames":             `{"type":"campaign","campaign":{"trials":10,"frames":20000}}`,
		"over-summarize-frames":   `{"type":"summarize","summarize":{"frames":20000}}`,
		"over-experiment":         `{"type":"experiment","experiment":{"fig":"5","trials":2000000000}}`,
		"over-workers":            `{"type":"campaign","campaign":{"trials":1000000,"workers":1000000}}`,
		"negative-workers":        `{"type":"campaign","campaign":{"trials":10,"workers":-1}}`,
		"over-experiment-workers": `{"type":"experiment","experiment":{"fig":"5","workers":1000000}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if jobs := svc.List(); len(jobs) != 0 {
		t.Errorf("rejected submissions queued %d jobs", len(jobs))
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j999"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job status %d, want 404", resp.StatusCode)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	st := postJob(t, ts, testCampaignSpec(40))
	waitFor(t, 60*time.Second, "metrics campaign done", func() bool {
		return getStatus(t, ts, st.ID).State == StateDone
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"vsd_jobs_accepted_total 1",
		"vsd_trials_total 40",
		`vsd_jobs{state="done"} 1`,
		`vsd_job_latency_seconds_count{type="campaign"} 1`,
		"vsd_queue_depth 0",
		"vsd_workers 1",
		"vsd_workers_busy ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	// Rates and ratios derive from the series above (rate() of
	// vsd_trials_total, vsd_workers_busy / vsd_workers); vsd does not
	// export them.
	for _, gone := range []string{"vsd_trials_per_sec", "vsd_worker_utilization"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still export derivable series %q", gone)
		}
	}
}

func TestExperimentJob(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	st := postJob(t, ts, JobSpec{
		Type:       JobExperiment,
		Experiment: &ExperimentSpec{Fig: "5", Frames: 8, Trials: 10, QualityTrials: 10},
	})
	waitFor(t, 120*time.Second, "experiment done", func() bool {
		s := getStatus(t, ts, st.ID)
		return s.State == StateDone || s.State == StateFailed
	})
	if s := getStatus(t, ts, st.ID); s.State != StateDone {
		t.Fatalf("experiment state %s: %s", s.State, s.Error)
	}
	var er ExperimentResult
	getResult(t, ts, st.ID, &er)
	if er.Fig != "5" || !strings.Contains(er.Text, "==") {
		t.Errorf("experiment result fig=%q text=%q", er.Fig, er.Text)
	}
}

func TestJournalToleratesTornWrites(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "vsd.journal")

	svcA, err := New(Config{Workers: 1, JournalPath: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	stA, err := svcA.Enqueue(JobSpec{
		Type:      JobSummarize,
		Summarize: &SummarizeSpec{InputSpec: InputSpec{Scale: "test", Frames: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	svcA.Shutdown(ctx)
	cancel()

	// Simulate a crash mid-append: a torn, non-JSON trailing line.
	f, err := os.OpenFile(journalPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"op":"state","id":%q,"sta`, stA.ID)
	f.Close()

	svcB := newTestService(t, Config{Workers: 1, JournalPath: journalPath})
	if _, err := svcB.Get(stA.ID); err != nil {
		t.Fatalf("job lost after torn journal write: %v", err)
	}
	waitFor(t, 60*time.Second, "replayed job done", func() bool {
		s, _ := svcB.Get(stA.ID)
		return s.State == StateDone
	})
}
