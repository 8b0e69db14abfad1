package fault

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// SessionConfig parameterizes a persistent executor session.
type SessionConfig struct {
	// App runs the application end to end (trials with no usable
	// checkpoint, and the golden fallback).
	App App
	// Staged, when non-nil, is the stage-resumable view of the same
	// app (see Config.Staged).
	Staged StagedApp
	// Golden is the precomputed golden run every window of this session
	// executes against. Required: a session exists to amortize work
	// across plan windows of one campaign, and those windows share one
	// golden by construction.
	Golden *GoldenRun
	// Workers caps the session's worker pool (0 = GOMAXPROCS). Workers
	// are spawned lazily up to min(Workers, pending trials of the
	// current window) and then kept for the session's lifetime.
	Workers int
}

// SessionStats counts what a session amortized across its windows. All
// numbers are observational — they never influence an execution
// observable — and deterministic in the sequence of Run calls (never in
// worker timing).
type SessionStats struct {
	// BucketPrepHits counts checkpoint buckets served from the
	// session's preparation cache; BucketPrepMisses counts buckets
	// prepared for the first time. One-shot campaigns see only misses;
	// the adaptive round loop turns all rounds after the first into
	// hits.
	BucketPrepHits   uint64
	BucketPrepMisses uint64
	// RoundsServed is the number of plan windows executed.
	RoundsServed uint64
	// WorkersSpawned is the number of pool goroutines started over the
	// session's lifetime; WorkersReused accumulates, per window, how
	// many of the workers it needed already existed.
	WorkersSpawned uint64
	WorkersReused  uint64
}

// Add folds another session's counters into s (fabric workers
// aggregate one entry per campaign).
func (s *SessionStats) Add(o SessionStats) {
	s.BucketPrepHits += o.BucketPrepHits
	s.BucketPrepMisses += o.BucketPrepMisses
	s.RoundsServed += o.RoundsServed
	s.WorkersSpawned += o.WorkersSpawned
	s.WorkersReused += o.WorkersReused
}

// Session is a persistent campaign executor: it owns the worker pool,
// the checkpoint-bucket preparation cache and the golden reference for
// the lifetime of one campaign, and executes successive plan windows
// (Run) without tearing anything down between them. RunCampaign is the
// one-shot wrapper: open, run one window, close.
//
// Reuse cannot shift results. The cached per-bucket preparation is a
// pure function of the immutable golden checkpoint state (see
// BatchStagedApp.PrepareResume), worker-pool lifetime is invisible to
// trials (each trial owns its machine and writes only its own result
// slot), and every window accumulates its Result in plan-index order
// exactly as the one-shot executor does — so a session-run window is
// bit-identical to a RunCampaign call with the same Config.
//
// Run may be called from multiple goroutines concurrently (adaptive
// round sub-shards share one session); Close must not race with Run.
type Session struct {
	app    App
	staged StagedApp
	bapp   BatchStagedApp // staged's batch view, type-asserted once
	golden *GoldenRun
	cap    int

	jobCh chan sessionJob

	mu      sync.Mutex
	spawned int
	closed  bool
	preps   map[int]*schedBucket // checkpoint index -> shared bucket
	stats   SessionStats
}

// NewSession opens a persistent executor session. The caller must
// Close it when the campaign is over.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.App == nil && cfg.Staged == nil {
		return nil, fmt.Errorf("fault: session has no application")
	}
	if cfg.Golden == nil {
		return nil, fmt.Errorf("fault: session requires a golden run")
	}
	capWorkers := cfg.Workers
	if capWorkers <= 0 {
		capWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Session{
		app:    cfg.App,
		staged: cfg.Staged,
		golden: cfg.Golden,
		cap:    capWorkers,
		jobCh:  make(chan sessionJob),
		preps:  make(map[int]*schedBucket),
	}
	if cfg.Staged != nil {
		s.bapp, _ = cfg.Staged.(BatchStagedApp)
	}
	return s, nil
}

// Golden returns the session's golden run.
func (s *Session) Golden() *GoldenRun { return s.golden }

// Stats returns a snapshot of the session's reuse counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close shuts the worker pool down. Idempotent; must not race with Run.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.jobCh)
}

// sessionJob is one unit of pool work: a trial batch of a specific
// window. Jobs of concurrent windows interleave on the shared channel;
// each completion is signaled on its own window's WaitGroup.
type sessionJob struct {
	win   *windowRun
	batch trialBatch
}

// windowRun is the per-Run state a pool worker needs to execute a
// batch of one window: the trial table, the execution invariants and
// the serialized post-trial hooks.
type windowRun struct {
	cfg    *Config
	plans  []Plan
	exec   *trialExec
	trials []Trial
	done   []bool

	hookMu  sync.Mutex // serializes OnTrial/OnSDCOutput and cap accounting
	keptSDC []int
	wg      sync.WaitGroup
}

// runWorker is the pool goroutine body: drain jobs until Close.
func (s *Session) runWorker() {
	for job := range s.jobCh {
		job.win.runBatch(job.batch)
		job.win.wg.Done()
	}
}

// ensureWorkers grows the pool to n goroutines (bounded by the session
// cap) and accounts spawn/reuse. Never shrinks: an idle pool goroutine
// costs only its blocked channel receive.
func (s *Session) ensureWorkers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.cap {
		n = s.cap
	}
	reused := s.spawned
	if reused > n {
		reused = n
	}
	s.stats.WorkersReused += uint64(reused)
	for s.spawned < n {
		go s.runWorker()
		s.spawned++
		s.stats.WorkersSpawned++
	}
}

// buckets resolves the checkpoint buckets for the given sorted index
// list against the session cache, so bucket preparation (the
// once-per-bucket composite plan) is paid once per campaign rather
// than once per window.
func (s *Session) buckets(cpIdxs []int) map[int]*schedBucket {
	out := make(map[int]*schedBucket, len(cpIdxs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ci := range cpIdxs {
		if ci < 0 {
			continue
		}
		b := s.preps[ci]
		if b == nil {
			b = &schedBucket{cp: &s.golden.Checkpoints[ci], cpIdx: ci}
			s.preps[ci] = b
			s.stats.BucketPrepMisses++
		} else {
			s.stats.BucketPrepHits++
		}
		out[ci] = b
	}
	return out
}

// Run executes one plan window through the session. It is
// bit-identical to RunCampaign(ctx, cfg, app) for the same Config —
// the session only changes where the worker pool and bucket
// preparations live — and shares its partial-result contract: on
// context cancellation the partial Result comes back with a non-nil
// error.
//
// cfg.Golden, when set, must be the session's golden run; cfg.Staged
// and the app are fixed at session construction and cfg's copies are
// ignored.
func (s *Session) Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("fault: non-positive trial count %d", cfg.Trials)
	}
	planTrials := cfg.PlanTrials
	if planTrials == 0 {
		planTrials = cfg.Trials
	}
	if cfg.PlanOffset < 0 || cfg.PlanOffset+cfg.Trials > planTrials {
		return nil, fmt.Errorf("fault: plan window [%d,%d) outside plan space [0,%d)",
			cfg.PlanOffset, cfg.PlanOffset+cfg.Trials, planTrials)
	}
	if cfg.Golden != nil && cfg.Golden != s.golden {
		return nil, fmt.Errorf("fault: config golden differs from session golden")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("fault: session is closed")
	}
	s.stats.RoundsServed++
	s.mu.Unlock()

	golden := s.golden
	goldenOut := golden.Output
	// Prefix skipping needs both sides of the seam: a staged app to
	// resume into and a golden run that recorded boundaries under the
	// current schema. Anything else (plain goldens, schema drift)
	// degrades to full execution.
	skip := s.staged != nil && len(golden.Checkpoints) > 0 &&
		golden.Schema == CheckpointSchema

	totalTaps := golden.Taps(cfg.Class, cfg.Region)
	if totalTaps == 0 {
		return nil, ErrNoTaps
	}

	window := WindowFor(cfg.Class, cfg.Window)
	stepFactor := cfg.StepFactor
	if stepFactor <= 0 {
		stepFactor = DefaultStepFactor
	}
	budget := uint64(float64(golden.Steps) * stepFactor)

	var plans []Plan
	if cfg.Plans != nil {
		// A planner supplied the exact plans for this window.
		if len(cfg.Plans) != cfg.Trials {
			return nil, fmt.Errorf("fault: %d explicit plans for %d trials", len(cfg.Plans), cfg.Trials)
		}
		plans = cfg.Plans
	} else {
		// Pre-generate the full plan space from the seed so results
		// depend on neither worker scheduling nor shard decomposition:
		// a shard draws the same plans the unsharded campaign would
		// and executes only its window.
		plans = GeneratePlans(cfg.Seed, cfg.Class, cfg.Region, window, planTrials, totalTaps)
		plans = plans[cfg.PlanOffset : cfg.PlanOffset+cfg.Trials]
	}

	trials := make([]Trial, cfg.Trials)
	done := make([]bool, cfg.Trials)
	for _, rec := range cfg.Resume {
		// Record indices are plan indices; map them into this run's
		// window.
		local := rec.Index - cfg.PlanOffset
		if local < 0 || local >= cfg.Trials {
			return nil, fmt.Errorf("fault: resume record index %d out of range [%d,%d)",
				rec.Index, cfg.PlanOffset, cfg.PlanOffset+cfg.Trials)
		}
		if rec.Outcome >= NumOutcomes {
			return nil, fmt.Errorf("fault: resume record %d has invalid outcome %d", rec.Index, rec.Outcome)
		}
		if done[local] {
			return nil, fmt.Errorf("fault: duplicate resume record for trial %d", rec.Index)
		}
		trials[local] = Trial{
			Plan:    plans[local],
			Outcome: rec.Outcome,
			Crash:   rec.Crash,
			Landed:  rec.Landed,
		}
		done[local] = true
	}

	pending := make([]int, 0, cfg.Trials)
	for i := 0; i < cfg.Trials; i++ {
		if !done[i] {
			pending = append(pending, i)
		}
	}
	workers := cfg.Workers
	if workers <= 0 || workers > s.cap {
		workers = s.cap
	}
	// Never run more workers than pending plans: a mostly-resumed
	// window needs fewer than the pool cap.
	if workers > len(pending) {
		workers = len(pending)
	}

	// Bucket batching groups the pending plans by the checkpoint they
	// resume from, so each bucket restores/prepares the shared boundary
	// view once per campaign. Scheduling stays an implementation detail:
	// trials write their own result slots and the final accumulation
	// below runs in plan-index order, so shard/merge/journal-resume
	// observables do not depend on the bucket decomposition.
	var sched SchedStats
	var jobs []trialBatch
	if skip {
		byCp := make(map[int][]int)
		for _, i := range pending {
			ci := golden.CheckpointIndexFor(plans[i])
			byCp[ci] = append(byCp[ci], i)
		}
		cpIdxs := make([]int, 0, len(byCp))
		for ci := range byCp {
			cpIdxs = append(cpIdxs, ci)
		}
		sort.Ints(cpIdxs)
		shared := s.buckets(cpIdxs)
		// Large buckets are fed to workers in chunks so one bucket
		// cannot serialize the pool (and cancellation stays responsive);
		// chunks of a bucket still share its once-per-campaign prepared
		// view.
		chunk := 1
		if workers > 0 {
			chunk = (len(pending) + workers*4 - 1) / (workers * 4)
		}
		if chunk > maxBucketChunk {
			chunk = maxBucketChunk
		}
		if chunk < 1 {
			chunk = 1
		}
		for _, ci := range cpIdxs {
			idxs := byCp[ci]
			b := shared[ci] // nil for ci < 0 (pre-first-boundary trials)
			if b != nil {
				sched.Buckets++
				sched.Batched += len(idxs)
				sched.BucketSizes = append(sched.BucketSizes, len(idxs))
			}
			for lo := 0; lo < len(idxs); lo += chunk {
				hi := lo + chunk
				if hi > len(idxs) {
					hi = len(idxs)
				}
				jobs = append(jobs, trialBatch{bucket: b, idxs: idxs[lo:hi]})
			}
		}
	} else {
		for lo := 0; lo < len(pending); lo++ {
			jobs = append(jobs, trialBatch{idxs: pending[lo : lo+1]})
		}
	}

	exec := &trialExec{
		budget:    budget,
		goldenOut: goldenOut,
		// keepSDC makes the trial hold on to SDC output bytes; the
		// post-trial hook decides whether they are streamed, retained
		// or dropped once the cap is reached.
		keepSDC:   cfg.KeepSDCOutputs || cfg.OnSDCOutput != nil,
		app:       s.app,
		staged:    s.staged,
		bapp:      s.bapp,
		golden:    golden,
		earlyMask: true,
	}

	win := &windowRun{
		cfg:    &cfg,
		plans:  plans,
		exec:   exec,
		trials: trials,
		done:   done,
	}
	s.ensureWorkers(workers)

	win.wg.Add(len(jobs))
	fed := 0
	var ctxErr error
feed:
	for _, job := range jobs {
		select {
		case s.jobCh <- sessionJob{win: win, batch: job}:
			fed++
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		}
	}
	// Jobs never fed still hold WaitGroup slots; release them so Wait
	// observes only the in-flight work.
	win.wg.Add(fed - len(jobs))
	win.wg.Wait()
	sched.EarlyMasks = int(exec.earlyMasks.Load())
	sched.Converged = int(exec.converged.Load())

	res := NewResult(cfg, goldenOut, golden.Steps, totalTaps)
	res.Trials = trials
	res.Sched = sched
	for i := range trials {
		if done[i] {
			res.Accumulate(&trials[i])
		}
	}
	if ctxErr != nil {
		return res, fmt.Errorf("fault: campaign interrupted after %d/%d trials: %w", res.Completed, cfg.Trials, ctxErr)
	}
	return res, nil
}

// runBatch executes one trial batch of this window on the calling pool
// worker.
func (w *windowRun) runBatch(job trialBatch) {
	cfg, exec := w.cfg, w.exec
	var cp *Checkpoint
	var prep any
	cpIdx := -1
	if b := job.bucket; b != nil {
		cp, cpIdx = b.cp, b.cpIdx
		if exec.bapp != nil {
			// Once per bucket per campaign, not per window, chunk or
			// trial: the first chunk scheduled prepares the shared view,
			// every later chunk — including chunks of later windows —
			// reuses it.
			b.prepOnce.Do(func() { b.prep = exec.bapp.PrepareResume(cp.State) })
			prep = b.prep
		}
	}
	for _, i := range job.idxs {
		t := exec.run(w.plans[i], cp, cpIdx, prep)
		w.hookMu.Lock()
		if t.Output != nil {
			switch {
			case cfg.OnSDCOutput != nil:
				cfg.OnSDCOutput(t.Record(cfg.PlanOffset+i), t.Output)
				t.Output = nil
			case cfg.MaxSDCOutputs > 0:
				if len(w.keptSDC) < cfg.MaxSDCOutputs {
					w.keptSDC = append(w.keptSDC, i)
				} else {
					// Cap reached: evict the highest retained index if
					// this trial precedes it, else drop this trial's
					// output.
					hi := 0
					for j := 1; j < len(w.keptSDC); j++ {
						if w.keptSDC[j] > w.keptSDC[hi] {
							hi = j
						}
					}
					if i < w.keptSDC[hi] {
						w.trials[w.keptSDC[hi]].Output = nil
						w.keptSDC[hi] = i
					} else {
						t.Output = nil
					}
				}
			}
		}
		w.trials[i] = t
		w.done[i] = true
		if cfg.OnTrial != nil {
			cfg.OnTrial(t.Record(cfg.PlanOffset + i))
		}
		w.hookMu.Unlock()
	}
}
