package fault

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// SessionConfig parameterizes a persistent executor session: the
// golden reference, the worker pool and every setting that stays the
// same across the plan windows of one campaign. A window itself
// (Config) is only its plans and where they sit in the plan space.
type SessionConfig struct {
	// App runs the application end to end (trials with no usable
	// checkpoint, and the golden fallback).
	App App
	// Staged, when non-nil, is the stage-resumable view of the same
	// app, enabling golden-prefix skipping: trials whose injection site
	// falls past a recorded stage boundary resume from that boundary's
	// golden checkpoint instead of re-executing the fault-free prefix.
	// It takes effect only with a Golden carrying checkpoints of the
	// current schema (CaptureGoldenStaged); a golden from CaptureGolden
	// runs every trial in full.
	Staged StagedApp
	// Golden is the precomputed golden run every window of this session
	// executes against. Required: a session exists to amortize work
	// across plan windows of one campaign, and those windows share one
	// golden by construction.
	Golden *GoldenRun
	// Workers caps the session's worker pool (0 = GOMAXPROCS). Workers
	// are spawned lazily up to min(Workers, pending trials of the
	// current window) and then kept for the session's lifetime. Workers
	// set inter-trial parallelism only; results are bit-identical for
	// every worker count.
	Workers int
	// Class selects GPR or FPR injections and Region restricts them to
	// one function (RAny = whole app). Together they size
	// Result.TotalTaps; the plans carry their own class and region.
	Class  Class
	Region Region
	// KeepSDCOutputs retains the corrupted output bytes of SDC trials
	// for quality analysis (Fig 12). MaxSDCOutputs caps how many each
	// window retains (<= 0 = unlimited): only the MaxSDCOutputs
	// lowest-index SDC trials of a window keep their bytes, whatever
	// the worker count and completion order.
	KeepSDCOutputs bool
	MaxSDCOutputs  int
	// OnTrial, if set, is called once per executed trial with its
	// checkpoint record, in completion order (not index order). The
	// session serializes invocations across all its windows, concurrent
	// ones included. A service journals these records so an interrupted
	// campaign can be resumed.
	OnTrial func(rec TrialRecord)
	// Resume holds checkpoint records that a previous, interrupted run
	// of the same campaign already completed, in any order. Each window
	// folds the records of its plan indices into its Result without
	// re-executing them; records no window reaches are ignored. Because
	// the planner draws the same plans from the same seed and each trial
	// is deterministic in its plan, a resumed campaign reaches the same
	// outcome counts as an uninterrupted one. NewSession rejects a
	// record with a negative index, an invalid outcome or a duplicate
	// index.
	Resume []TrialRecord
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

// Session is the campaign executor: it owns the worker pool, the
// checkpoint-bucket preparation cache, the golden reference and the
// resume index for the lifetime of one campaign, and executes
// successive planner-supplied plan windows (Run) without tearing
// anything down between them.
//
// Reuse cannot shift results. The cached per-bucket preparation is a
// pure function of the immutable golden checkpoint state (see
// BatchStagedApp.PrepareResume), worker-pool lifetime is invisible to
// trials (each trial owns its machine and writes only its own result
// slot), and every window accumulates its Result in plan-index order —
// so a window's Result depends only on its plans and offset, never on
// which session ran it or what ran before.
//
// Run may be called from multiple goroutines concurrently (a round's
// sub-windows share one session); Close must not race with Run.
type Session struct {
	cfg       SessionConfig  // Resume sorted by plan index
	bapp      BatchStagedApp // Staged's batch view, type-asserted once
	cap       int
	totalTaps uint64
	budget    uint64 // hang budget: DefaultStepFactor golden runs

	jobCh chan sessionJob
	// hookMu serializes OnTrial and the per-window SDC cap accounting
	// across every window of the session.
	hookMu sync.Mutex

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
	totalTaps := cfg.Golden.Taps(cfg.Class, cfg.Region)
	if totalTaps == 0 {
		return nil, ErrNoTaps
	}
	cfg.Resume = slices.Clone(cfg.Resume)
	slices.SortStableFunc(cfg.Resume, func(a, b TrialRecord) int { return cmp.Compare(a.Index, b.Index) })
	for i, rec := range cfg.Resume {
		switch {
		case rec.Index < 0:
			return nil, fmt.Errorf("fault: resume record has negative index %d", rec.Index)
		case rec.Outcome >= NumOutcomes:
			return nil, fmt.Errorf("fault: resume record %d has invalid outcome %d", rec.Index, rec.Outcome)
		case i > 0 && cfg.Resume[i-1].Index == rec.Index:
			return nil, fmt.Errorf("fault: duplicate resume record for trial %d", rec.Index)
		}
	}
	capWorkers := cfg.Workers
	if capWorkers <= 0 {
		capWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Session{
		cfg:       cfg,
		cap:       capWorkers,
		totalTaps: totalTaps,
		budget:    cfg.Golden.Steps * DefaultStepFactor,
		jobCh:     make(chan sessionJob),
		preps:     make(map[int]*schedBucket),
	}
	s.bapp, _ = cfg.Staged.(BatchStagedApp)
	return s, nil
}

// Golden returns the session's golden run.
func (s *Session) Golden() *GoldenRun { return s.cfg.Golden }

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
// batch of one window: the trial table and the execution invariants.
type windowRun struct {
	offset int
	plans  []Plan
	exec   *trialExec
	trials []Trial
	done   []bool

	keptSDC []int // guarded by the session's hookMu
	wg      sync.WaitGroup
}

// runWorker is the pool goroutine body: drain jobs until Close.
func (s *Session) runWorker() {
	for job := range s.jobCh {
		s.runBatch(job.win, job.batch)
		job.win.wg.Done()
	}
}

// ensureWorkers grows the pool to n goroutines (bounded by the session
// cap) and accounts spawn/reuse. Never shrinks: an idle pool goroutine
// costs only its blocked channel receive.
func (s *Session) ensureWorkers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n = min(n, s.cap)
	s.stats.WorkersReused += uint64(min(s.spawned, n))
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
			b = &schedBucket{cp: &s.cfg.Golden.Checkpoints[ci], cpIdx: ci}
			s.preps[ci] = b
			s.stats.BucketPrepMisses++
		} else {
			s.stats.BucketPrepHits++
		}
		out[ci] = b
	}
	return out
}

// resumeWindow slices the sorted resume index to records with plan
// indices in [lo, hi).
func (s *Session) resumeWindow(lo, hi int) []TrialRecord {
	rs := s.cfg.Resume
	a := sort.Search(len(rs), func(i int) bool { return rs[i].Index >= lo })
	b := sort.Search(len(rs), func(i int) bool { return rs[i].Index >= hi })
	return rs[a:b]
}

// Run executes one window of planner-supplied plans through the
// session: cfg.Plans[i] is plan index cfg.PlanOffset+i. Resume records
// with plan indices inside the window are folded without re-execution.
// On context cancellation it stops feeding new trials, waits for
// in-flight ones and returns the partial Result (Completed <
// len(cfg.Plans)) together with a non-nil error wrapping ctx's error —
// callers that want partial data on interruption must check the Result
// even when err != nil.
func (s *Session) Run(ctx context.Context, cfg Config) (*Result, error) {
	n := len(cfg.Plans)
	if n == 0 {
		return nil, fmt.Errorf("fault: empty plan window")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("fault: session is closed")
	}
	s.stats.RoundsServed++
	s.mu.Unlock()

	golden := s.cfg.Golden
	// Prefix skipping needs both sides of the seam: a staged app to
	// resume into and a golden run that recorded boundaries under the
	// current schema. Anything else (plain goldens, schema drift)
	// degrades to full execution.
	skip := s.cfg.Staged != nil && len(golden.Checkpoints) > 0 &&
		golden.Schema == CheckpointSchema

	plans := cfg.Plans
	trials := make([]Trial, n)
	done := make([]bool, n)
	resumed := s.resumeWindow(cfg.PlanOffset, cfg.PlanOffset+n)
	for _, rec := range resumed {
		local := rec.Index - cfg.PlanOffset
		trials[local] = Trial{
			Plan:    plans[local],
			Outcome: rec.Outcome,
			Crash:   rec.Crash,
			Landed:  rec.Landed,
		}
		done[local] = true
	}

	pending := make([]int, 0, n-len(resumed))
	for i := range n {
		if !done[i] {
			pending = append(pending, i)
		}
	}
	// Never run more workers than pending plans: a mostly-resumed
	// window needs fewer than the pool cap.
	workers := min(s.cap, len(pending))

	// Bucket batching groups the pending plans by the checkpoint they
	// resume from, so each bucket restores/prepares the shared boundary
	// view once per campaign. Scheduling stays an implementation detail:
	// trials write their own result slots and the final accumulation
	// below runs in plan-index order, so window and journal-resume
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
			chunk = max(min((len(pending)+workers*4-1)/(workers*4), maxBucketChunk), 1)
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
				jobs = append(jobs, trialBatch{bucket: b, idxs: idxs[lo:min(lo+chunk, len(idxs))]})
			}
		}
	} else {
		for lo := 0; lo < len(pending); lo++ {
			jobs = append(jobs, trialBatch{idxs: pending[lo : lo+1]})
		}
	}

	exec := &trialExec{
		budget:    s.budget,
		goldenOut: golden.Output,
		keepSDC:   s.cfg.KeepSDCOutputs,
		app:       s.cfg.App,
		staged:    s.cfg.Staged,
		bapp:      s.bapp,
		golden:    golden,
		earlyMask: true,
	}

	win := &windowRun{
		offset: cfg.PlanOffset,
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

	res := newResult(cfg, golden.Output, golden.Steps, s.totalTaps)
	res.Trials = trials
	res.Resumed = len(resumed)
	res.Sched = sched
	for i := range trials {
		if done[i] {
			res.accumulate(&trials[i])
		}
	}
	if ctxErr != nil {
		return res, fmt.Errorf("fault: campaign interrupted after %d/%d trials: %w", res.Completed, n, ctxErr)
	}
	return res, nil
}

// runBatch executes one trial batch of window w on the calling pool
// worker.
func (s *Session) runBatch(w *windowRun, job trialBatch) {
	exec := w.exec
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
	maxSDC := s.cfg.MaxSDCOutputs
	for _, i := range job.idxs {
		t := exec.run(w.plans[i], cp, cpIdx, prep)
		s.hookMu.Lock()
		if t.Output != nil && maxSDC > 0 {
			if len(w.keptSDC) < maxSDC {
				w.keptSDC = append(w.keptSDC, i)
			} else {
				// Cap reached: evict the highest retained index if this
				// trial precedes it, else drop this trial's output.
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
		w.trials[i] = t
		w.done[i] = true
		if s.cfg.OnTrial != nil {
			s.cfg.OnTrial(t.Record(w.offset + i))
		}
		s.hookMu.Unlock()
	}
}
