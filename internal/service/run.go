package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/experiments"
	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stitch"
	"vsresil/internal/summarize"
	"vsresil/internal/vs"
)

// SummarizeResult is the wire form of a summarize job's output.
type SummarizeResult struct {
	Summarizer string `json:"summarizer"`
	Algorithm  string `json:"algorithm"`
	Input      string `json:"input"`
	Frames     int    `json:"frames"`
	// Dropped is how many input frames VS_RFD removed.
	Dropped int `json:"dropped"`
	// Discarded counts frames rejected for insufficient matches.
	Discarded int            `json:"discarded"`
	Panoramas []PanoramaInfo `json:"panoramas"`
	// PrimaryPGM is the primary panorama as base64 PGM when the spec
	// set include_pgm.
	PrimaryPGM string  `json:"primary_pgm,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// Stages is the probe.Meter's per-stage profile of this run; only
	// stages with activity are listed.
	Stages []StageStat `json:"stages,omitempty"`
}

// StageStat is one pipeline stage's share of a summarize run, as
// recorded by the probe.Meter the service threads through the
// pipeline.
type StageStat struct {
	Stage     string  `json:"stage"`
	WallSec   float64 `json:"wall_sec"`
	Ops       uint64  `json:"ops"`
	IntTaps   uint64  `json:"int_taps"`
	FloatTaps uint64  `json:"float_taps"`
}

// PanoramaInfo describes one rendered mini-panorama.
type PanoramaInfo struct {
	W      int `json:"w"`
	H      int `json:"h"`
	MinX   int `json:"min_x"`
	MinY   int `json:"min_y"`
	Frames int `json:"frames"`
}

// CampaignResult is the wire form of a campaign job's output, the
// campaign report every surface returns.
type CampaignResult = campaign.Report

// ExperimentResult is the wire form of an experiment job's output: the
// figure harness's textual report.
type ExperimentResult struct {
	Fig        string  `json:"fig"`
	Text       string  `json:"text"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// execute runs a job to a terminal state (or back to queued on
// shutdown interruption) and records journal + metrics.
func (s *Service) execute(ctx context.Context, j *Job) {
	started := time.Now()
	var result any
	var err error
	switch j.Spec.Type {
	case JobSummarize:
		result, err = s.runSummarize(ctx, j)
	case JobCampaign:
		result, err = s.runCampaign(ctx, j)
	case JobExperiment:
		result, err = s.runExperiment(ctx, j)
	default:
		err = fmt.Errorf("service: unknown job type %q", j.Spec.Type)
	}
	elapsed := time.Since(started)

	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(result)
	}

	s.mu.Lock()
	j.cancel = nil
	canceled := err != nil && errors.Is(err, context.Canceled)
	state := StateDone
	switch {
	case canceled && j.cancelRequested:
		state = StateCanceled
		j.Err = "canceled"
	case canceled:
		// Shutdown interruption: the journaled state stays "running",
		// so the next start re-queues the job and resumes it.
		state = StateQueued
	case err != nil:
		state = StateFailed
		j.Err = err.Error()
	default:
		j.Result = raw
		j.Progress.Done = j.Progress.Total
	}
	j.State = state
	if state.terminal() {
		j.FinishedAt = time.Now().UTC()
	}
	errMsg := j.Err
	s.mu.Unlock()

	// A failed journal write latches in the Log and is returned by
	// Shutdown; the job itself already finished.
	if state.terminal() {
		if raw != nil && state == StateDone {
			_ = s.journal.Append(journalRecord{Op: "result", ID: j.ID, Result: raw})
		}
		_ = s.journal.Commit(journalRecord{Op: "state", ID: j.ID, State: state, Err: errMsg})
		s.maybeCompact()
	}
	s.metrics.jobFinished(j.Spec.Type, state, elapsed)
}

// runSummarize executes one VS variant run. The pipeline itself is not
// context-aware, so it runs in a goroutine and cancellation abandons
// the run (the goroutine finishes and its result is discarded).
func (s *Service) runSummarize(ctx context.Context, j *Job) (any, error) {
	spec := j.Spec.Summarize
	started := time.Now()
	cell := campaign.Cell{Summarizer: spec.Summarizer, Algorithm: spec.Algorithm}
	sum, err := cell.Backend(spec.Seed)
	if err != nil {
		return nil, err
	}
	frames, inputName, err := spec.InputSpec.frames()
	if err != nil {
		return nil, err
	}

	type runOut struct {
		res     *stitch.Result
		dropped int
		stats   []probe.RegionStats
		err     error
	}
	ch := make(chan runOut, 1)
	go func() {
		// Thread a Meter through the pipeline: summarize traffic is the
		// service's live source of per-stage latency and op profiles.
		meter := probe.NewMeter()
		var out runOut
		if v, ok := sum.(summarize.VS); ok {
			// The vs backend runs through its App so the frame-drop count
			// (a VS_RFD-only statistic) survives into the result.
			app := vs.New(v.Cfg, len(frames))
			out.res, out.err = app.Run(frames, meter)
			out.dropped = app.Dropped()
		} else {
			out.res, out.err = summarize.Run(sum, frames, meter)
		}
		out.stats = meter.Snapshot()
		ch <- out
	}()
	var out runOut
	select {
	case out = <-ch:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if out.err != nil {
		return nil, out.err
	}
	s.metrics.stagesDone(out.stats)

	sr := &SummarizeResult{
		Summarizer: sum.Name(),
		Algorithm:  cell.Canonical().Algorithm,
		Input:      inputName,
		Frames:     len(frames),
		Dropped:    out.dropped,
		Discarded:  out.res.Discarded,
		ElapsedSec: time.Since(started).Seconds(),
	}
	for _, p := range out.res.Panoramas {
		sr.Panoramas = append(sr.Panoramas, PanoramaInfo{
			W: p.Image.W, H: p.Image.H,
			MinX: p.Bounds.MinX, MinY: p.Bounds.MinY,
			Frames: p.Frames,
		})
	}
	for _, rs := range out.stats {
		var ops uint64
		for _, n := range rs.Ops {
			ops += n
		}
		if ops == 0 && rs.IntTaps == 0 && rs.FPTaps == 0 && rs.Wall == 0 {
			continue
		}
		sr.Stages = append(sr.Stages, StageStat{
			Stage:     rs.Region.String(),
			WallSec:   rs.Wall.Seconds(),
			Ops:       ops,
			IntTaps:   rs.IntTaps,
			FloatTaps: rs.FPTaps,
		})
	}
	if spec.IncludePGM {
		if prim := out.res.Primary(); prim != nil {
			var buf bytes.Buffer
			if err := imgproc.WritePGM(&buf, prim.Image); err != nil {
				return nil, err
			}
			sr.PrimaryPGM = base64.StdEncoding.EncodeToString(buf.Bytes())
		}
	}
	return sr, nil
}

// runCampaign executes a fault-injection campaign through the campaign
// engine, with per-trial checkpointing: every completed trial updates
// the job's progress and is journaled in batches of CheckpointEvery, so
// an interrupted campaign resumes instead of restarting. Trial record
// indices are plan indices, so the journal replays into the same plan
// windows whichever run wrote it.
func (s *Service) runCampaign(ctx context.Context, j *Job) (any, error) {
	spec := j.Spec.Campaign
	started := time.Now()
	req := spec.request()
	w, err := spec.workload(&req)
	if err != nil {
		return nil, err
	}
	cspec, err := req.Spec(w)
	if err != nil {
		return nil, err
	}
	cell := req.Cell().Canonical()

	s.mu.Lock()
	resume := append([]fault.TrialRecord(nil), j.resume...)
	j.Progress = Progress{Done: len(resume), Total: spec.Trials}
	s.mu.Unlock()

	// pendingRecs batches checkpoint records between journal writes;
	// guarded by s.mu alongside the job's progress.
	var pendingRecs []fault.TrialRecord
	flush := func(recs []fault.TrialRecord) {
		if len(recs) > 0 {
			_ = s.journal.Append(journalRecord{Op: "trials", ID: j.ID, Recs: recs}) // a failure latches; Shutdown returns it
		}
		s.maybeCompact()
	}
	cspec.OnTrial = func(rec fault.TrialRecord) {
		s.mu.Lock()
		j.Progress.Done++
		j.resume = append(j.resume, rec)
		pendingRecs = append(pendingRecs, rec)
		var batch []fault.TrialRecord
		if len(pendingRecs) >= s.cfg.CheckpointEvery {
			batch = pendingRecs
			pendingRecs = nil
		}
		s.mu.Unlock()
		s.metrics.trialsDone(1)
		s.metrics.workloadTrialsDone(cell, 1)
		if batch != nil {
			flush(batch)
		}
	}
	cspec.Resume = resume

	// The runner resolves the golden run through the service-wide
	// cache: repeated campaigns over the same workload (sweeping
	// classes, regions or trial counts) skip the capture entirely.
	var rep *campaign.Report
	if cspec.Adaptive != nil {
		cspec.Adaptive.OnRound = func(st campaign.RoundStatus) {
			// The allocation is decided round by round, so the
			// progress denominator grows with it.
			s.mu.Lock()
			j.Progress.Total = st.Trials
			s.mu.Unlock()
			s.metrics.roundDone(st)
		}
		var res *campaign.AdaptiveResult
		if res, err = s.runner.RunAdaptive(ctx, cspec, 1); err == nil {
			rep = req.AdaptiveReport(res)
			s.metrics.adaptiveDone(rep)
		}
	} else {
		var res *campaign.Result
		if res, err = s.runner.Run(ctx, cspec); err == nil {
			rep = req.Report(res)
			s.metrics.bucketsDone(res.Fault.Sched)
		}
	}

	// Flush the tail of the checkpoint batch whether the campaign
	// finished, failed or was interrupted — these records are exactly
	// what the next start resumes from.
	s.mu.Lock()
	tail := pendingRecs
	pendingRecs = nil
	s.mu.Unlock()
	flush(tail)
	if err != nil {
		return nil, err
	}
	rep.SetElapsed(time.Since(started))
	return rep, nil
}

// runExperiment regenerates one paper figure and captures its report.
func (s *Service) runExperiment(ctx context.Context, j *Job) (any, error) {
	spec := j.Spec.Experiment
	started := time.Now()
	exp, err := experiments.Lookup(spec.Fig)
	if err != nil {
		return nil, err
	}
	o, err := experiments.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	if spec.Frames > 0 {
		o.Preset.Frames = spec.Frames
	}
	if spec.Trials > 0 {
		o.Trials = spec.Trials
	}
	if spec.QualityTrials > 0 {
		o.QualityTrials = spec.QualityTrials
	}
	if spec.Seed != 0 {
		o.Seed = spec.Seed
	}
	o.Workers = spec.Workers
	o.Precision = spec.Precision
	o.Confidence = spec.Confidence

	var buf bytes.Buffer
	if err := exp.Run(ctx, o, &buf); err != nil {
		return nil, err
	}
	return &ExperimentResult{
		Fig:        exp.Name,
		Text:       buf.String(),
		ElapsedSec: time.Since(started).Seconds(),
	}, nil
}
