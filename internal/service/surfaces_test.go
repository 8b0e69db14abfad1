package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fabric"
)

// TestSurfacesAgree runs one campaign request three ways — in process
// through Runner (cmd/afirun's local path), as a vsd campaign job and
// on an in-process fabric cluster of two HTTP workers — and requires
// the three reports to be equal in every field but the ones that
// describe where and how fast it ran: elapsed time, throughput,
// shards and resumed (the coordinator rebuilds its result from
// records). Both budgets are covered: a fixed one and an adaptive one.
func TestSurfacesAgree(t *testing.T) {
	base := campaign.Request{Input: 2, Scale: "test", Frames: 6, Class: "gpr", Seed: 7, Workers: 2}
	fixed := base
	fixed.Trials = 60
	adaptive := base
	adaptive.Adaptive, adaptive.Precision, adaptive.Confidence, adaptive.MaxTrials = true, 0.15, 0.9, 150

	svc := newTestService(t, Config{Workers: 1})
	coord, err := fabric.NewCoordinator(fabric.Config{LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { coord.Close() })
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for _, id := range []string{"w1", "w2"} {
		w := &fabric.Worker{ID: id, Client: &fabric.Client{Base: srv.URL}, Poll: 5 * time.Millisecond}
		go w.Run(ctx)
	}

	for name, req := range map[string]campaign.Request{"fixed": fixed, "adaptive": adaptive} {
		t.Run(name, func(t *testing.T) {
			// Local: the request's own workload, translation and report.
			w, err := req.Workload()
			if err != nil {
				t.Fatal(err)
			}
			spec, err := req.Spec(w)
			if err != nil {
				t.Fatal(err)
			}
			var runner campaign.Runner
			var local *campaign.Report
			if req.Adaptive {
				res, err := runner.RunAdaptive(context.Background(), spec, 1)
				if err != nil {
					t.Fatalf("local run: %v", err)
				}
				local = req.AdaptiveReport(res)
			} else {
				res, err := runner.Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("local run: %v", err)
				}
				local = req.Report(res)
			}

			// vsd: the same fields as a campaign job.
			st, err := svc.Enqueue(JobSpec{Type: JobCampaign, Campaign: &CampaignSpec{
				InputSpec: InputSpec{Input: req.Input, Scale: req.Scale, Frames: req.Frames},
				Class:     req.Class, Trials: req.Trials, Seed: req.Seed, Workers: req.Workers,
				Adaptive: req.Adaptive, Precision: req.Precision, Confidence: req.Confidence, MaxTrials: req.MaxTrials,
			}})
			if err != nil {
				t.Fatalf("enqueue: %v", err)
			}
			waitFor(t, 120*time.Second, "vsd job done", func() bool {
				s, _ := svc.Get(st.ID)
				if s.State == StateFailed {
					t.Fatalf("vsd job failed: %s", s.Error)
				}
				return s.State == StateDone
			})
			vsdRaw, err := svc.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}

			// Fabric: the request itself, split into two round-shards.
			id, err := coord.Submit(req, 2)
			if err != nil {
				t.Fatalf("fabric submit: %v", err)
			}
			waitFor(t, 120*time.Second, "fabric campaign done", func() bool {
				s, err := coord.Status(id)
				if err != nil || s.State == "failed" {
					t.Fatalf("fabric campaign: %v %s", err, s.Error)
				}
				return s.State == "done"
			})
			fabricRaw, err := coord.Result(id)
			if err != nil {
				t.Fatal(err)
			}

			localRaw, err := json.Marshal(local)
			if err != nil {
				t.Fatal(err)
			}
			want := campaignPart(t, localRaw)
			if want.Completed == 0 || len(want.Counts) == 0 || req.Adaptive != (len(want.Strata) > 0) {
				t.Fatalf("local report is empty or misses its section: %+v", want)
			}
			for surface, raw := range map[string][]byte{"vsd": vsdRaw, "fabric": fabricRaw} {
				if got := campaignPart(t, raw); !reflect.DeepEqual(got, want) {
					t.Errorf("%s report differs from the local one\n got %+v\nwant %+v", surface, got, want)
				}
			}
		})
	}
}

// campaignPart decodes a wire report and clears the fields that describe
// the run rather than the campaign.
func campaignPart(t *testing.T, raw []byte) campaign.Report {
	t.Helper()
	var rep campaign.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decode report %s: %v", raw, err)
	}
	rep.ElapsedSec, rep.TrialsPerSec, rep.Shards, rep.Resumed = 0, 0, 0, 0
	return rep
}
