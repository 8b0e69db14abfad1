package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fabric"
	"vsresil/internal/journal"
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	// Campaigns additionally parallelize their own trials, so the
	// effective CPU bound is Workers x per-campaign workers.
	Workers int
	// JournalPath enables durability: queued/running jobs and campaign
	// checkpoints are written there and replayed by the next start
	// ("" = in-memory only).
	JournalPath string
	// CheckpointEvery batches campaign trial records per journal write
	// (default 25). Smaller loses less work on a crash; larger writes
	// less.
	CheckpointEvery int
	// CompactEvery rewrites the journal from live job state after that
	// many appended records (default 4096), so a long-lived daemon's
	// journal stays proportional to its live state instead of its
	// history. Startup always compacts after replay.
	CompactEvery int
	// Fabric, when non-nil, is the campaign-cluster coordinator this
	// daemon fronts: its lease/heartbeat/result API is mounted next to
	// the job API and its gauges append to /metrics.
	Fabric *fabric.Coordinator
}

// Service is the job queue: it accepts JobSpecs, schedules them by
// priority on a bounded worker pool, exposes status and results, and
// journals everything needed to survive a restart.
type Service struct {
	cfg     Config
	journal *journal.Log[journalRecord]
	metrics *metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	pending jobHeap
	seq     int
	busy    int
	closed  bool

	// runner is the campaign engine all campaign jobs run through. Its
	// golden cache (bounded by maxGoldenCache, keyed by Workload.Key)
	// lets repeated campaigns over the same workload skip the
	// fault-free capture run.
	runner *campaign.Runner

	// fabric is the optional cluster coordinator this daemon fronts.
	fabric *fabric.Coordinator
}

// Errors the HTTP layer maps to status codes.
var (
	ErrNotFound     = errors.New("service: no such job")
	ErrNotFinished  = errors.New("service: job has not finished")
	ErrNoResult     = errors.New("service: job finished without a result")
	ErrShuttingDown = errors.New("service: shutting down")
	ErrTerminal     = errors.New("service: job already in a terminal state")
)

// New builds a Service, replays and compacts its journal (if
// configured) and starts the worker pool. Jobs that were queued or
// running when the previous process died are scheduled again;
// half-finished campaigns resume from their checkpoints.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 25
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 4096
	}
	s := &Service{
		cfg:     cfg,
		metrics: newMetrics(),
		jobs:    make(map[string]*Job),
		fabric:  cfg.Fabric,
	}
	s.runner = &campaign.Runner{
		Goldens:        campaign.NewGoldenCache(maxGoldenCache),
		OnGoldenLookup: s.metrics.goldenLookup,
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	if cfg.JournalPath != "" {
		replayed, maxSeq, err := replayJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		jl, err := journal.Open(cfg.JournalPath, snapshotRecords(replayed))
		if err != nil {
			return nil, err
		}
		s.journal = jl
		s.seq = maxSeq
		for _, j := range replayed {
			s.jobs[j.ID] = j
			if j.State == StateQueued {
				heap.Push(&s.pending, j)
			}
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Enqueue validates and schedules a job, returning its status.
func (s *Service) Enqueue(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrShuttingDown
	}
	s.seq++
	j := &Job{
		ID:         fmt.Sprintf("j%d", s.seq),
		seq:        s.seq,
		Spec:       spec,
		State:      StateQueued,
		EnqueuedAt: time.Now().UTC(),
	}
	if spec.Type == JobCampaign {
		j.Progress = Progress{Total: spec.Campaign.Trials}
	} else {
		j.Progress = Progress{Total: 1}
	}
	// Journaled under s.mu before the job is visible: no worker can
	// journal a state or result for it ahead of its job record, which
	// replay would drop.
	if err := s.journal.Append(jobRecord(j)); err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	s.jobs[j.ID] = j
	heap.Push(&s.pending, j)
	st := j.status()
	s.cond.Signal()
	s.mu.Unlock()

	s.metrics.jobAccepted()
	return st, nil
}

// Get returns a job's status.
func (s *Service) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns every job's status in enqueue order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].EnqueuedAt.Before(out[b].EnqueuedAt) })
	return out
}

// Result returns a finished job's serialized result.
func (s *Service) Result(id string) (json.RawMessage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if !j.State.terminal() {
		return nil, ErrNotFinished
	}
	if j.Result == nil {
		if j.Err != "" {
			return nil, fmt.Errorf("%w: %s", ErrNoResult, j.Err)
		}
		return nil, ErrNoResult
	}
	return j.Result, nil
}

// Cancel aborts a job: a queued job is marked canceled immediately, a
// running one has its context canceled and transitions when the runner
// notices.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	if j.State.terminal() {
		st := j.status()
		s.mu.Unlock()
		return st, ErrTerminal
	}
	j.cancelRequested = true
	var finished bool
	switch j.State {
	case StateQueued:
		for i, p := range s.pending {
			if p == j {
				heap.Remove(&s.pending, i)
				break
			}
		}
		j.State = StateCanceled
		j.FinishedAt = time.Now().UTC()
		finished = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := j.status()
	s.mu.Unlock()
	if finished {
		_ = s.journal.Commit(journalRecord{Op: "state", ID: j.ID, State: StateCanceled}) // a failure latches; Shutdown returns it
		s.metrics.jobFinished(j.Spec.Type, StateCanceled, 0)
	}
	return st, nil
}

// gauges snapshots queue state for /metrics.
func (s *Service) gauges() gauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := gauges{
		queueDepth:  len(s.pending),
		workers:     s.cfg.Workers,
		busyWorkers: s.busy,
		jobsByState: make(map[JobState]int),
	}
	for _, j := range s.jobs {
		g.jobsByState[j.State]++
	}
	return g
}

// Shutdown drains the service: no new jobs are accepted, running job
// contexts are canceled (campaigns checkpoint their completed trials
// to the journal), and workers are awaited until ctx expires. The
// journal is closed last, after every in-flight checkpoint write; a
// journal write that failed while the service ran is returned here.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel()

	doneCh := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(doneCh)
	}()
	var err error
	select {
	case <-doneCh:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// maybeCompact rewrites the journal from live job state once enough
// records accumulated since the last compaction. Called from the
// append-heavy paths; the check is one mutex and an int compare, the
// rewrite itself is rare. It holds s.mu from snapshot to rename, and
// every other append either runs under s.mu (the job record) or
// follows the state change it records, so no record can land in the
// old file after the snapshot was taken: at worst it re-lands after
// the rewrite, and replay folds the repeat.
func (s *Service) maybeCompact() {
	if s.journal.Appended() < s.cfg.CompactEvery {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	// A failed rewrite leaves the old journal in place and is retried
	// on the next append.
	_ = s.journal.Rewrite(snapshotRecords(jobs))
}

// worker pulls the highest-priority pending job and runs it.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.pending).(*Job)
		jctx, cancel := context.WithCancel(s.baseCtx)
		j.State = StateRunning
		j.StartedAt = time.Now().UTC()
		j.cancel = cancel
		s.busy++
		s.mu.Unlock()

		_ = s.journal.Append(journalRecord{Op: "state", ID: j.ID, State: StateRunning}) // a failure latches; Shutdown returns it
		s.execute(jctx, j)
		cancel()

		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// jobHeap orders pending jobs by priority (higher first), then by
// enqueue sequence (FIFO within a priority).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].Spec.Priority != h[b].Spec.Priority {
		return h[a].Spec.Priority > h[b].Spec.Priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
