// Package service is the job-queue layer that turns the vsresil
// engines into a long-running daemon: summarization requests and
// fault-injection campaigns are submitted as jobs over HTTP (cmd/vsd),
// executed on a bounded worker pool with priorities and per-job
// cancellation, and journaled so queued and half-finished work
// survives a restart.
//
// The design mirrors how production injection services (AVFI-style
// campaign managers) treat campaigns: as long-running, interruptible
// workloads that checkpoint per-trial progress. A campaign job streams
// fault.TrialRecord checkpoints into the journal; after a crash or
// SIGTERM the replayed job resumes from the completed-trial set and —
// because campaign plans are pre-generated from the seed — finishes
// with the same outcome counts an uninterrupted run produces.
package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/experiments"
	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// JobType identifies what a job runs.
type JobType string

// The three job types: one application run, one fault-injection
// campaign, one paper-figure experiment.
const (
	JobSummarize  JobType = "summarize"
	JobCampaign   JobType = "campaign"
	JobExperiment JobType = "experiment"
)

// JobState is a job's lifecycle state.
type JobState string

// Lifecycle: queued -> running -> done | failed | canceled. A running
// job interrupted by daemon shutdown is re-queued from the journal on
// the next start.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// InputSpec selects the frames a job runs on: a generated VIRAT-style
// preset, or PGM frames uploaded inline.
type InputSpec struct {
	// Input selects the synthetic sequence: 1 (fast-panning, scene
	// cuts) or 2 (slow, smooth). Default 1.
	Input int `json:"input,omitempty"`
	// Scale is the preset size: "test", "bench" or "paper" (default
	// "test").
	Scale string `json:"scale,omitempty"`
	// Frames overrides the preset's frame count (0 = preset default).
	Frames int `json:"frames,omitempty"`
	// Scenario degrades the generated sequence: "" or "identity" for
	// the clean baseline, or a "+"-chain of noise, lowlight, fog,
	// blocking, jitter. Rejected for uploaded frames.
	Scenario string `json:"scenario,omitempty"`
	// FramesPGM uploads the input directly: base64-encoded binary PGM
	// (P5) frames, all the same size. When set, Input/Scale/Frames are
	// ignored.
	FramesPGM []string `json:"frames_pgm,omitempty"`
}

// SummarizeSpec parameterizes a summarize job: one end-to-end run of a
// summarizer backend producing a panorama (or filmstrip) set.
type SummarizeSpec struct {
	InputSpec
	// Summarizer selects the backend: "" or "vs" for panorama
	// stitching, "storyboard" for the keyframe filmstrip.
	Summarizer string `json:"summarizer,omitempty"`
	// Algorithm is the VS variant name: VS, VS_RFD, VS_KDS or VS_SM
	// (default VS). Applies to the vs backend.
	Algorithm string `json:"algorithm,omitempty"`
	// Seed fixes the variant's stochastic choices.
	Seed uint64 `json:"seed,omitempty"`
	// IncludePGM returns the primary panorama as base64 PGM in the
	// result (off by default: panoramas can be large).
	IncludePGM bool `json:"include_pgm,omitempty"`
}

// CampaignSpec parameterizes a fault-injection campaign job: the
// fields of campaign.Request, whose input may instead be uploaded
// frames. It converts to the request for validation, workload
// resolution and translation.
type CampaignSpec struct {
	InputSpec
	// Summarizer selects the backend under test: "" or "vs" for
	// panorama stitching, "storyboard" for the keyframe filmstrip.
	Summarizer string `json:"summarizer,omitempty"`
	// Algorithm is the VS variant under test (default VS). Applies to
	// the vs backend.
	Algorithm string `json:"algorithm,omitempty"`
	// Class is the register class: "gpr" or "fpr" (default gpr).
	Class string `json:"class,omitempty"`
	// Region restricts injections to one function ("" = whole app).
	Region string `json:"region,omitempty"`
	// Trials is the number of injections (required for fixed-budget
	// campaigns, > 0; ignored when Adaptive is set).
	Trials int `json:"trials"`
	// Adaptive switches from the fixed Trials budget to
	// confidence-driven allocation: the campaign rounds trials into the
	// widest-interval strata and stops once every per-stratum outcome
	// rate reaches the target half-width.
	Adaptive bool `json:"adaptive,omitempty"`
	// Precision is the adaptive target half-width (0 = 0.05).
	Precision float64 `json:"precision,omitempty"`
	// Confidence is the adaptive interval level (0 = 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// RoundSize is the adaptive per-round trial budget (0 = planner
	// default).
	RoundSize int `json:"round_size,omitempty"`
	// MaxTrials caps the adaptive allocation (0 = the fixed-budget
	// equivalent for the same precision/confidence/strata).
	MaxTrials int `json:"max_trials,omitempty"`
	// Seed makes the campaign reproducible (and resumable).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the campaign's own trial parallelism
	// (0 = GOMAXPROCS). The service worker running the job is a
	// separate, coarser bound.
	Workers int `json:"workers,omitempty"`
}

// ExperimentSpec parameterizes a paper-figure experiment job.
type ExperimentSpec struct {
	// Fig is the figure name from the experiments registry
	// (5, 6, 8, 9, 10, 11a, 11b, 12, 13, ablation-*).
	Fig string `json:"fig"`
	// Scale is "small", "bench" or "paper" (default small).
	Scale string `json:"scale,omitempty"`
	// Frames/Trials/QualityTrials override the scale's sizes when > 0.
	Frames        int    `json:"frames,omitempty"`
	Trials        int    `json:"trials,omitempty"`
	QualityTrials int    `json:"quality_trials,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	// Precision/Confidence parameterize the adaptive convergence
	// experiment (0 = the planner defaults, 0.05 at 0.95).
	Precision  float64 `json:"precision,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// JobSpec is the wire form of a job submission: a type, a scheduling
// priority and exactly one populated spec matching the type.
type JobSpec struct {
	Type JobType `json:"type"`
	// Priority orders the queue: higher runs first; equal priorities
	// run FIFO. Default 0.
	Priority   int             `json:"priority,omitempty"`
	Summarize  *SummarizeSpec  `json:"summarize,omitempty"`
	Campaign   *CampaignSpec   `json:"campaign,omitempty"`
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
}

// Validate checks the spec without running anything.
func (s *JobSpec) Validate() error { return s.validate(false) }

// validate checks the spec. replay drops the adaptive-only knobs of a
// fixed-budget campaign before checking (campaign.Request's
// DropLegacyKnobs): journals written before submission rejected them
// may carry them, and they never had an effect.
func (s *JobSpec) validate(replay bool) error {
	switch s.Type {
	case JobSummarize:
		if s.Summarize == nil {
			return fmt.Errorf("service: summarize job missing \"summarize\" spec")
		}
		if _, err := (campaign.Cell{Summarizer: s.Summarize.Summarizer, Algorithm: s.Summarize.Algorithm}).Backend(0); err != nil {
			return err
		}
		return s.Summarize.InputSpec.validate()
	case JobCampaign:
		c := s.Campaign
		if c == nil {
			return fmt.Errorf("service: campaign job missing \"campaign\" spec")
		}
		// vsd resolves every generated input through the registry, so
		// the algorithm must parse (a fabric builder may accept others).
		if _, err := vs.ParseAlgorithm(c.Algorithm); err != nil {
			return err
		}
		// A generated input is the request's to check; only uploaded
		// frames are the job's own.
		if err := c.InputSpec.validateUpload(); err != nil {
			return err
		}
		req := c.request()
		if replay {
			req.DropLegacyKnobs()
		}
		return req.Validate()
	case JobExperiment:
		e := s.Experiment
		if e == nil {
			return fmt.Errorf("service: experiment job missing \"experiment\" spec")
		}
		if e.Fig == "" {
			return fmt.Errorf("service: experiment needs a \"fig\" name")
		}
		if e.Trials > campaign.TrialLimit || e.QualityTrials > campaign.TrialLimit || e.Frames > campaign.FrameLimit {
			return fmt.Errorf("service: experiment trials/quality_trials over %d or frames over %d", campaign.TrialLimit, campaign.FrameLimit)
		}
		if e.Workers < 0 || e.Workers > campaign.WorkerLimit {
			return fmt.Errorf("service: experiment workers %d outside [0, %d]", e.Workers, campaign.WorkerLimit)
		}
		if _, err := experiments.ParseScale(e.Scale); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("service: unknown job type %q (want summarize, campaign or experiment)", s.Type)
	}
}

// request is the campaign's shared wire form. Uploaded frames replace
// the generated input, so their request carries no input fields.
func (c *CampaignSpec) request() campaign.Request {
	r := campaign.Request{
		Algorithm:  c.Algorithm,
		Scenario:   c.Scenario,
		Summarizer: c.Summarizer,
		Class:      c.Class,
		Region:     c.Region,
		Trials:     c.Trials,
		Seed:       c.Seed,
		Workers:    c.Workers,
		Adaptive:   c.Adaptive,
		Precision:  c.Precision,
		Confidence: c.Confidence,
		RoundSize:  c.RoundSize,
		MaxTrials:  c.MaxTrials,
	}
	if len(c.FramesPGM) == 0 {
		r.Input, r.Scale, r.Frames = c.Input, c.Scale, c.Frames
	}
	return r
}

// validate checks a summarize job's input.
func (in *InputSpec) validate() error {
	if len(in.FramesPGM) > 0 {
		return in.validateUpload()
	}
	if _, err := virat.ParseScenario(in.Scenario); err != nil {
		return err
	}
	if in.Frames > campaign.FrameLimit {
		return fmt.Errorf("service: %d frames over the %d-frame limit", in.Frames, campaign.FrameLimit)
	}
	if in.Input != 0 && in.Input != 1 && in.Input != 2 {
		return fmt.Errorf("service: input must be 1 or 2, got %d", in.Input)
	}
	if _, err := virat.ParsePreset(in.Scale, in.Frames); err != nil {
		return err
	}
	return nil
}

// validateUpload checks what only uploaded frames carry: their count,
// and no scenario (a scenario degrades generated inputs); a generated
// input passes. The frames are decoded, and their errors reported, at
// run time.
func (in *InputSpec) validateUpload() error {
	if len(in.FramesPGM) == 0 {
		return nil
	}
	sc, err := virat.ParseScenario(in.Scenario)
	if err != nil {
		return err
	}
	if !sc.IsIdentity() {
		return fmt.Errorf("service: scenario %q applies to generated inputs, not uploaded frames", in.Scenario)
	}
	if len(in.FramesPGM) > campaign.FrameLimit {
		return fmt.Errorf("service: %d uploaded frames over the %d-frame limit", len(in.FramesPGM), campaign.FrameLimit)
	}
	return nil
}

// frames materializes the input frames (and a label for results).
func (in *InputSpec) frames() ([]*imgproc.Gray, string, error) {
	if len(in.FramesPGM) > 0 {
		frames := make([]*imgproc.Gray, 0, len(in.FramesPGM))
		for i, enc := range in.FramesPGM {
			raw, err := base64.StdEncoding.DecodeString(enc)
			if err != nil {
				return nil, "", fmt.Errorf("service: frame %d: invalid base64: %w", i, err)
			}
			g, err := imgproc.ReadPGM(bytes.NewReader(raw))
			if err != nil {
				return nil, "", fmt.Errorf("service: frame %d: %w", i, err)
			}
			frames = append(frames, g)
		}
		return frames, fmt.Sprintf("uploaded[%d]", len(frames)), nil
	}
	preset, err := virat.ParsePreset(in.Scale, in.Frames)
	if err != nil {
		return nil, "", err
	}
	sc, err := virat.ParseScenario(in.Scenario)
	if err != nil {
		return nil, "", err
	}
	input := in.Input
	if input == 0 {
		input = 1
	}
	seq, err := virat.GenerateInput(input, preset, sc)
	if err != nil {
		return nil, "", err
	}
	return seq.Frames(), seq.Name, nil
}

// Progress reports how far a job has advanced. For campaigns, Done
// counts completed trials; for the other types it is coarse (0 or 1
// unit of work).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Job is the service's unit of work. All mutable fields are guarded by
// the owning Service's mutex.
type Job struct {
	ID         string
	seq        int // enqueue order, tie-breaker within a priority
	Spec       JobSpec
	State      JobState
	Err        string
	EnqueuedAt time.Time
	StartedAt  time.Time
	FinishedAt time.Time
	Progress   Progress
	// Result is the job's serialized result, set once State == done.
	Result json.RawMessage

	// resume accumulates campaign checkpoint records (journal replayed
	// plus live), handed to fault.Config.Resume on (re)start.
	resume []fault.TrialRecord
	// cancel aborts the running job's context; non-nil only while
	// running.
	cancel func()
	// cancelRequested distinguishes a user DELETE (-> canceled) from a
	// shutdown interruption (-> requeued on next start).
	cancelRequested bool
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID         string     `json:"id"`
	Type       JobType    `json:"type"`
	State      JobState   `json:"state"`
	Priority   int        `json:"priority"`
	Progress   Progress   `json:"progress"`
	Error      string     `json:"error,omitempty"`
	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// status snapshots the job; caller holds the service mutex.
func (j *Job) status() JobStatus {
	st := JobStatus{
		ID:         j.ID,
		Type:       j.Spec.Type,
		State:      j.State,
		Priority:   j.Spec.Priority,
		Progress:   j.Progress,
		Error:      j.Err,
		EnqueuedAt: j.EnqueuedAt,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		st.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		st.FinishedAt = &t
	}
	return st
}
