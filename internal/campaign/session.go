package campaign

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vsresil/internal/fault"
)

// Session is a campaign-lifetime executor handle: one resolved golden
// run, one fault.Session (worker pool + checkpoint-bucket preparation
// cache) and one resume-record index, shared by every plan window of
// the campaign. The round loop behind every Runner entry point and the
// fabric worker's leases run all their windows through a single
// Session, so per-window cost is the trials themselves rather than
// executor setup; Runner.RunPlans opens and closes one per call.
//
// RunPlans may be called concurrently (a round's sub-windows share the
// session); Close must not race with RunPlans.
type Session struct {
	fs *fault.Session
	// resume is the session spec's Resume records sorted by plan index,
	// built once at open; per-window slices come from two binary
	// searches instead of the O(windows × records) rescans the per-call
	// path used to pay.
	resume []fault.TrialRecord
}

// OpenSession resolves spec's workload golden (through the runner's
// cache, like any campaign) and opens a persistent executor session
// for it. Successive RunPlans calls reuse the session's worker pool,
// bucket preparations and resume index; the caller must Close it when
// the campaign is over.
func (r *Runner) OpenSession(spec Spec) (*Session, error) {
	if spec.Workload.App == nil {
		return nil, fmt.Errorf("campaign: spec has no workload app")
	}
	golden, err := r.golden(&spec)
	if err != nil {
		return nil, err
	}
	fs, err := fault.NewSession(fault.SessionConfig{
		App:     spec.Workload.App,
		Staged:  spec.Workload.Staged,
		Golden:  golden,
		Workers: spec.Workers,
	})
	if err != nil {
		return nil, err
	}
	resume := append([]fault.TrialRecord(nil), spec.Resume...)
	sort.SliceStable(resume, func(i, j int) bool { return resume[i].Index < resume[j].Index })
	return &Session{fs: fs, resume: resume}, nil
}

// Golden returns the session's resolved golden run.
func (s *Session) Golden() *fault.GoldenRun { return s.fs.Golden() }

// Stats returns a snapshot of the executor session's reuse counters.
func (s *Session) Stats() fault.SessionStats { return s.fs.Stats() }

// Close releases the session's worker pool. Idempotent.
func (s *Session) Close() { s.fs.Close() }

// resumeWindow slices the sorted resume index to records with plan
// indices in [lo, hi).
func (s *Session) resumeWindow(lo, hi int) []fault.TrialRecord {
	a := sort.Search(len(s.resume), func(i int) bool { return s.resume[i].Index >= lo })
	b := sort.Search(len(s.resume), func(i int) bool { return s.resume[i].Index >= hi })
	return s.resume[a:b]
}

// RunPlans executes one window of planner-emitted plans through the
// session, bit-identical to Runner.RunPlans with the same arguments.
// lo is the plan index of plans[0]. spec carries the per-window hooks;
// its Resume field is ignored — resume records were indexed from the
// spec the session was opened with.
func (s *Session) RunPlans(ctx context.Context, spec Spec, plans []fault.Plan, lo int) (*Result, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("campaign: empty plan window")
	}
	start := time.Now()
	cfg := fault.Config{
		Trials:          len(plans),
		Class:           spec.Class,
		Region:          spec.Region,
		Workers:         spec.Workers,
		StepFactor:      spec.StepFactor,
		CheckpointEvery: spec.CheckpointEvery,
		KeepSDCOutputs:  spec.SDC.Keep,
		MaxSDCOutputs:   spec.SDC.Max,
		OnSDCOutput:     spec.SDC.OnOutput,
		OnTrial:         spec.OnTrial,
		Plans:           plans,
		PlanOffset:      lo,
		Resume:          s.resumeWindow(lo, lo+len(plans)),
	}
	fres, err := s.fs.Run(ctx, cfg)
	if fres == nil {
		return nil, err
	}
	return &Result{
		Spec:     spec,
		Fault:    fres,
		Executed: fres.Completed - len(cfg.Resume),
		Elapsed:  time.Since(start),
	}, err
}
