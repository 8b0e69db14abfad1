package fabric

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/journal"
	"vsresil/internal/plan"
)

// Campaign lifecycle states on the coordinator.
const (
	campRunning = "running"
	campDone    = "done"
	campFailed  = "failed"
)

// Errors the HTTP layer maps to status codes.
var (
	ErrNoCampaign  = errors.New("fabric: no such campaign")
	ErrNotFinished = errors.New("fabric: campaign has not finished")
	ErrClosed      = errors.New("fabric: coordinator closed")
	// ErrResultTooLarge fails a campaign whose shard result cannot be
	// journaled: it encodes past journal.MaxRecordBytes, and every
	// later run of the same deterministic shard would produce the same
	// result again.
	ErrResultTooLarge = errors.New("fabric: shard result over the journal record limit")
)

// DefaultLeaseTTL is how long a shard lease lives without a heartbeat
// before the shard is reassigned.
const DefaultLeaseTTL = 15 * time.Second

// Config parameterizes a Coordinator.
type Config struct {
	// LeaseTTL is the lease duration (default DefaultLeaseTTL).
	// Workers heartbeat at TTL/3; expiry reassigns the shard.
	LeaseTTL time.Duration
	// JournalPath enables durability: campaigns, leases and shard
	// results are journaled and replayed by the next start ("" =
	// in-memory only).
	JournalPath string
	// Workload maps wire specs to workloads (default DefaultWorkload).
	// Must match the builder every joined worker uses.
	Workload WorkloadBuilder
}

// lease is one granted shard assignment.
type lease struct {
	id       string
	campaign string
	shard    int
	worker   string
	deadline time.Time
	// progress is the worker's last heartbeat-reported completed-trial
	// count, feeding the work-stealing policy and the trials gauge.
	progress int
}

// shardState tracks one plan-index range of a campaign.
type shardState struct {
	lo, hi int
	done   bool
	// recs/sdc hold the winning completion (set once, with done).
	recs []fault.TrialRecord
	sdc  []SDCOutput
	// leases are the active assignments; more than one means the shard
	// was stolen.
	leases map[string]*lease
	// round groups the shard for journal snapshots, and plans carries
	// the planner's trial window while the round is live. A shard with
	// nil plans — its round not yet (re)generated by the round driver, or
	// already folded — is not leasable.
	round int
	plans []fault.Plan
}

// camp is one cluster campaign.
type camp struct {
	id         string
	spec       CampaignSpec
	shards     []*shardState
	state      string
	err        string
	doneShards int
	// recs are a finished campaign's trial records in plan order and
	// sdc a finished static campaign's retained SDC outputs (both
	// in-memory only); resultJSON is the wire rendering, which is what
	// the journal persists. Merged rebuilds a static campaign's engine
	// result from recs and sdc on demand, so a long-lived coordinator
	// holds each finished campaign's records, not its per-trial table.
	recs       []fault.TrialRecord
	sdc        []SDCOutput
	resultJSON json.RawMessage
	started    time.Time
	// fanout is the round-shard count every round is split into;
	// notify wakes the round driver on shard completions.
	fanout int
	notify chan struct{}
}

// newCamp builds a campaign's table. A static campaign's one round
// covers the whole trial budget, so its shard windows follow from the
// campaign record alone and exist from the start (static campaigns
// journal no round record); adaptive rounds are appended as the
// planner emits them.
func newCamp(id string, spec CampaignSpec, k int) *camp {
	cm := &camp{id: id, spec: spec, state: campRunning, fanout: k, notify: make(chan struct{}, 1)}
	if !spec.Adaptive {
		cm.addRound(0, splitRound(0, spec.Trials, k))
	}
	return cm
}

// addRound appends one round's shard windows to the table.
func (cm *camp) addRound(round int, windows [][2]int) {
	for _, w := range windows {
		cm.shards = append(cm.shards, &shardState{
			lo: w[0], hi: w[1], round: round,
			leases: make(map[string]*lease),
		})
	}
}

// splitRound splits the plan-index window [lo, lo+n) into k contiguous
// round-shards (k clamped to [1, n]) — the same split the local round
// loop gives its sub-windows.
func splitRound(lo, n, k int) [][2]int {
	k = min(max(k, 1), n)
	windows := make([][2]int, k)
	for j := range windows {
		windows[j] = [2]int{lo + j*n/k, lo + (j+1)*n/k}
	}
	return windows
}

// Coordinator owns the cluster's campaign table: it drives every
// campaign's planner rounds, leases their shards to workers, reassigns
// them on expiry, arbitrates duplicate completions and rebuilds
// finished campaigns bit-identically to a single-node run.
type Coordinator struct {
	cfg     Config
	journal *journal.Log[record]
	build   WorkloadBuilder
	runner  *campaign.Runner

	baseCtx    context.Context
	baseCancel context.CancelFunc
	sweepDone  chan struct{}
	drivers    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	camps    map[string]*camp
	order    []*camp
	leases   map[string]*lease
	campSeq  int
	leaseSeq int
	lastSeen map[string]time.Time // worker id -> last contact

	// counters for /metrics
	leasesIssued  uint64
	leasesExpired uint64
	leasesStolen  uint64
	dupResults    uint64
	trialsDone    uint64
	roundsDone    uint64
}

// NewCoordinator builds a Coordinator, replays and compacts its
// journal (if configured) and starts the lease-expiry sweeper. Every
// campaign still running at the crash gets its round driver back:
// completed rounds fold from the journaled records, the partial one
// re-leases its unfinished shards, and a campaign whose shards all
// completed is rebuilt without leasing anything.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Workload == nil {
		cfg.Workload = DefaultWorkload
	}
	c := &Coordinator{
		cfg:       cfg,
		build:     cfg.Workload,
		runner:    &campaign.Runner{Goldens: campaign.NewGoldenCache(4)},
		camps:     make(map[string]*camp),
		leases:    make(map[string]*lease),
		lastSeen:  make(map[string]time.Time),
		sweepDone: make(chan struct{}),
	}
	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())

	if cfg.JournalPath != "" {
		camps, campSeq, leaseSeq, err := replayJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		// Snapshot-on-replay compaction: the rewritten journal holds
		// live state only, so lease churn never accumulates across
		// restarts.
		jl, err := journal.Open(cfg.JournalPath, snapshotRecords(camps))
		if err != nil {
			return nil, err
		}
		c.journal = jl
		c.campSeq, c.leaseSeq = campSeq, leaseSeq
		for _, cm := range camps {
			c.camps[cm.id] = cm
			c.order = append(c.order, cm)
			for _, sh := range cm.shards {
				for id, l := range sh.leases {
					c.leases[id] = l
				}
			}
			if cm.state == campRunning {
				c.drivers.Add(1)
				go c.drive(cm)
			}
		}
	}

	go c.sweeper()
	return c, nil
}

// Close stops the sweeper, waits for the round drivers (a running
// campaign stays running in the journal) and closes the journal,
// returning any journal write that failed while the coordinator ran.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.baseCancel()
	<-c.sweepDone
	c.drivers.Wait()
	return c.journal.Close()
}

// Submit registers a campaign whose rounds are split into shards
// leases each and starts its round driver. It validates the spec by
// building its workload once (the same deterministic construction
// every worker will perform).
func (c *Coordinator) Submit(spec CampaignSpec, shards int) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	if shards < 1 {
		shards = 1
	}
	if _, err := c.build(spec); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClosed
	}
	c.campSeq++
	cm := newCamp(fmt.Sprintf("c%d", c.campSeq), spec, shards)
	cm.started = time.Now()
	// Journaled under c.mu before the campaign is visible, like every
	// other commit point: no lease, round or shard record of it can
	// precede its campaign record, which replay would drop.
	if err := c.journal.Append(record{Op: "campaign", Campaign: cm.id, Spec: &cm.spec, Shards: shards}); err != nil {
		return "", err
	}
	c.camps[cm.id] = cm
	c.order = append(c.order, cm)
	// Registered under c.mu so Close (which flips closed under the same
	// lock before waiting) cannot race the Add.
	c.drivers.Add(1)
	go c.drive(cm)
	return cm.id, nil
}

// Lease grants worker the next shard: the oldest campaign's first
// unleased shard, or — when every remaining shard is already leased —
// a duplicate lease on the one with the most remaining trials (work
// stealing; the straggler and the thief race, first journaled result
// wins). ok is false when the cluster has no work.
func (c *Coordinator) Lease(worker string) (Lease, bool, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Lease{}, false, ErrClosed
	}
	c.lastSeen[worker] = now
	c.expireLocked(now)

	cm, shard := c.pickPending()
	stolen := false
	if cm == nil {
		cm, shard = c.pickSteal(worker)
		stolen = cm != nil
	}
	if cm == nil {
		return Lease{}, false, nil
	}
	c.leaseSeq++
	sh := cm.shards[shard]
	l := &lease{
		id:       fmt.Sprintf("l%d", c.leaseSeq),
		campaign: cm.id,
		shard:    shard,
		worker:   worker,
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	d := l.deadline
	if err := c.journal.Append(record{
		Op: "lease", Campaign: cm.id, Lease: l.id, Shard: shard,
		Worker: worker, Deadline: &d,
	}); err != nil {
		return Lease{}, false, err
	}
	sh.leases[l.id] = l
	c.leases[l.id] = l
	c.leasesIssued++
	if stolen {
		c.leasesStolen++
	}
	return Lease{
		ID:         l.id,
		Campaign:   cm.id,
		Spec:       cm.spec,
		ShardIndex: shard,
		ShardCount: len(cm.shards),
		PlanLo:     sh.lo,
		PlanHi:     sh.hi,
		TTL:        c.cfg.LeaseTTL,
		Plans:      sh.plans,
	}, true, nil
}

// pickPending returns the oldest running campaign's first shard with
// no active lease; caller holds c.mu.
func (c *Coordinator) pickPending() (*camp, int) {
	for _, cm := range c.order {
		if cm.state != campRunning {
			continue
		}
		for i, sh := range cm.shards {
			if sh.plans != nil && !sh.done && len(sh.leases) == 0 {
				return cm, i
			}
		}
	}
	return nil, -1
}

// pickSteal returns the singly-leased shard with the most remaining
// trials (by last heartbeat), skipping shards the asking worker
// already holds — duplicating a worker's own lease buys nothing.
// Caller holds c.mu.
func (c *Coordinator) pickSteal(worker string) (*camp, int) {
	var bestCamp *camp
	best, bestLeft := -1, 0
	for _, cm := range c.order {
		if cm.state != campRunning {
			continue
		}
		for i, sh := range cm.shards {
			if sh.plans == nil || sh.done || len(sh.leases) != 1 {
				continue
			}
			left := sh.hi - sh.lo
			mine := false
			for _, l := range sh.leases {
				left -= l.progress
				mine = mine || l.worker == worker
			}
			if mine || left <= 1 {
				continue
			}
			if left > bestLeft {
				bestCamp, best, bestLeft = cm, i, left
			}
		}
	}
	return bestCamp, best
}

// Heartbeat extends a lease and records the worker's progress. ok is
// false when the lease is gone (expired, stolen-and-beaten, or its
// shard already completed) — the worker should abandon the run.
func (c *Coordinator) Heartbeat(worker, leaseID string, done int) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSeen[worker] = now
	l, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	if done > l.progress {
		c.noteTrials(done - l.progress)
		l.progress = done
	}
	return true
}

// Complete accepts a worker's shard result. The first completion per
// shard is journaled and wins; duplicates (from stolen or expired
// leases that finished anyway) are counted and discarded. Every
// accepted completion wakes the campaign's round driver.
func (c *Coordinator) Complete(res ShardResult) (bool, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSeen[res.Worker] = now
	cm := c.camps[res.Campaign]
	if cm == nil {
		return false, ErrNoCampaign
	}
	if res.Shard < 0 || res.Shard >= len(cm.shards) {
		return false, fmt.Errorf("fabric: shard %d outside campaign %s (%d shards)", res.Shard, cm.id, len(cm.shards))
	}
	sh := cm.shards[res.Shard]
	if sh.done {
		c.dupResults++
		delete(c.leases, res.Lease)
		delete(sh.leases, res.Lease)
		return false, nil
	}
	recs := fault.DedupRecords(res.Recs)
	if err := validateShard(sh, recs, res.SDC); err != nil {
		return false, err
	}
	// The journal commit is the tie-break: it happens under c.mu,
	// before the shard is marked done or the completion acknowledged,
	// and a failed commit leaves the shard undone.
	var err error
	if c.journal != nil && sdcEncodedLen(res.SDC) >= journal.MaxRecordBytes {
		// The retained outputs alone encode past the limit: skip
		// building a record the journal would refuse.
		err = journal.ErrTooLarge
	} else {
		err = c.journal.Commit(record{Op: "shard", Campaign: cm.id, Shard: res.Shard, Recs: recs, SDC: res.SDC})
	}
	if err != nil {
		if errors.Is(err, journal.ErrTooLarge) {
			// Leasing the shard again would only rebuild the same
			// oversize result: fail the campaign instead.
			err = fmt.Errorf("%w: campaign %s shard %d exceeds %d bytes", ErrResultTooLarge, cm.id, res.Shard, journal.MaxRecordBytes)
			c.failLocked(cm, err)
		}
		return false, err
	}
	if l := c.leases[res.Lease]; l != nil {
		c.noteTrials((sh.hi - sh.lo) - l.progress)
	} else {
		c.noteTrials(sh.hi - sh.lo)
	}
	sh.done = true
	sh.recs = recs
	sh.sdc = res.SDC
	// Retire every lease on the shard: stolen twins and stale holders
	// learn on their next heartbeat and abandon the duplicate run.
	for id := range sh.leases {
		delete(c.leases, id)
	}
	sh.leases = make(map[string]*lease)
	cm.doneShards++
	select {
	case cm.notify <- struct{}{}:
	default:
	}
	return true, nil
}

// sdcEncodedLen is the base64 length of a shard's retained outputs, a
// lower bound on their share of the shard's journal record.
func sdcEncodedLen(sdc []SDCOutput) int {
	n := 0
	for _, out := range sdc {
		n += base64.StdEncoding.EncodedLen(len(out.Data))
	}
	return n
}

// validateShard checks that records tile the shard's plan window
// exactly with valid outcomes and that retained SDC outputs lie inside
// it in ascending plan order; deeper validation happens in the resume
// rebuild.
func validateShard(sh *shardState, recs []fault.TrialRecord, sdc []SDCOutput) error {
	if len(recs) != sh.hi-sh.lo {
		return fmt.Errorf("fabric: shard result has %d records, want %d", len(recs), sh.hi-sh.lo)
	}
	for i, rec := range recs {
		if rec.Index != sh.lo+i {
			return fmt.Errorf("fabric: shard result record %d has plan index %d, want %d", i, rec.Index, sh.lo+i)
		}
	}
	if err := checkOutcomes(recs); err != nil {
		return err
	}
	prev := sh.lo - 1
	for _, out := range sdc {
		if out.Index <= prev || out.Index >= sh.hi {
			return fmt.Errorf("fabric: shard SDC output index %d out of order or outside window [%d,%d)", out.Index, sh.lo, sh.hi)
		}
		prev = out.Index
	}
	return nil
}

// checkOutcomes rejects records whose outcome is not one of the four
// fault.Outcome classes: the planners index their per-outcome counts
// by it.
func checkOutcomes(recs []fault.TrialRecord) error {
	for _, rec := range recs {
		if rec.Outcome >= fault.NumOutcomes {
			return fmt.Errorf("fabric: shard result record %d has invalid outcome %d", rec.Index, rec.Outcome)
		}
	}
	return nil
}

// drive is a campaign's round loop, the coordinator's only one. It
// rebuilds the planner from the spec through campaign.Spec.NewPlanner
// (the local round loop's constructor) and, for each emitted round,
// creates (or, after a restart, re-adopts) its round-shards, waits
// until workers complete them all and folds the outcomes back in. A
// static campaign is a single round. Allocation depends only on the
// folded outcomes and those only on the plans, so the cluster's trial
// set is bit-identical to a single-node run at the same seed — for any
// fanout, worker set or restart point.
func (c *Coordinator) drive(cm *camp) {
	defer c.drivers.Done()
	// A failed journal write here latches in the Log and is returned
	// by Close; the campaign's journaled state stays running, so a
	// restart on a working journal resumes it.
	fail := func(err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.failLocked(cm, err)
	}
	w, err := c.build(cm.spec)
	if err != nil {
		fail(err)
		return
	}
	spec, err := cm.spec.campaignSpec(w)
	if err != nil {
		fail(err)
		return
	}
	golden, err := c.runner.GoldenFor(w)
	if err != nil {
		fail(err)
		return
	}
	planner, err := spec.NewPlanner(golden)
	if err != nil {
		fail(err)
		return
	}

	cursor := 0 // shards consumed by the rounds processed so far
	for {
		round, ok := planner.Next()
		if !ok {
			break
		}
		outcomes, err := c.runRound(cm, round, &cursor)
		if errors.Is(err, context.Canceled) {
			// Shutdown mid-round: leave the campaign running so the
			// restarted coordinator resumes it from the journal.
			return
		}
		if err != nil {
			fail(err)
			return
		}
		planner.Observe(round, outcomes)
		if cm.spec.Adaptive {
			c.mu.Lock()
			c.roundsDone++
			c.mu.Unlock()
		}
	}

	// The records move out of the shard table into the finished
	// campaign, so a long-lived coordinator holds them once.
	c.mu.Lock()
	var recs []fault.TrialRecord
	var sdc []SDCOutput
	for _, sh := range cm.shards {
		recs = append(recs, sh.recs...)
		sdc = append(sdc, sh.sdc...)
		sh.recs, sh.sdc = nil, nil
	}
	shards := len(cm.shards)
	c.mu.Unlock()

	var wire any
	var kept []SDCOutput
	if a, ok := planner.(*plan.Adaptive); ok {
		ar := adaptiveWireResult(a)
		if !cm.started.IsZero() {
			ar.ElapsedSec = time.Since(cm.started).Seconds()
		}
		wire = ar
	} else {
		spec.Resume = recs
		res, err := c.rebuild(spec, sdc)
		if errors.Is(err, context.Canceled) {
			return // as above: the restarted coordinator rebuilds it
		}
		if err != nil {
			fail(err)
			return
		}
		for i, t := range res.Fault.Trials {
			if t.Output != nil {
				kept = append(kept, SDCOutput{Index: i, Data: t.Output})
			}
		}
		cr := wireResult(cm.spec, shards, res)
		if !cm.started.IsZero() {
			cr.ElapsedSec = time.Since(cm.started).Seconds()
		}
		wire = cr
	}
	resJSON, _ := json.Marshal(wire)
	if err := c.journal.Commit(record{Op: "state", Campaign: cm.id, State: campDone, Result: resJSON}); err != nil {
		fail(err)
		return
	}
	c.mu.Lock()
	cm.state = campDone
	cm.recs, cm.sdc, cm.resultJSON = recs, kept, resJSON
	c.mu.Unlock()
}

// failLocked fails a running campaign: it records err, journals the
// small failed state record, retires every lease on the campaign (their
// holders learn on the next heartbeat) and wakes the round driver,
// which stops. A campaign that already failed keeps its first error.
// Caller holds c.mu.
func (c *Coordinator) failLocked(cm *camp, err error) {
	if cm.state == campFailed {
		return
	}
	cm.state = campFailed
	cm.err = err.Error()
	_ = c.journal.Commit(record{Op: "state", Campaign: cm.id, State: campFailed, Err: cm.err})
	for _, sh := range cm.shards {
		for id := range sh.leases {
			delete(c.leases, id)
		}
		sh.leases = make(map[string]*lease)
	}
	select {
	case cm.notify <- struct{}{}:
	default:
	}
}

// rebuild reconstructs a finished static campaign's single-node result
// from its journaled records: one Runner.Run with every record as
// spec.Resume executes no trial, but plans, histograms and the rate
// curve regenerate from the seed exactly as on the workers. The
// retained SDC bytes (in plan order) reattach by plan index, the
// MaxSDC lowest indices only — the set a single-node run keeps.
func (c *Coordinator) rebuild(spec campaign.Spec, sdc []SDCOutput) (*campaign.Result, error) {
	res, err := c.runner.Run(c.baseCtx, spec)
	if err != nil {
		return nil, fmt.Errorf("fabric: rebuild: %w", err)
	}
	trials := res.Fault.Trials
	kept := 0
	for _, out := range sdc {
		if out.Index < 0 || out.Index >= len(trials) {
			return nil, fmt.Errorf("fabric: SDC output index %d outside the %d-trial campaign", out.Index, len(trials))
		}
		if trials[out.Index].Outcome != fault.OutcomeSDC || (spec.SDC.Max > 0 && kept == spec.SDC.Max) {
			continue
		}
		trials[out.Index].Output = out.Data
		kept++
	}
	return res, nil
}

// runRound executes one planner round through the cluster: slice it
// into fanout round-shards (journaling the windows of rounds the
// campaign record does not imply, so a restart can re-home replayed
// results), publish the plans so workers can lease them, and block
// until every shard completes. Outcomes come back in plan order. Rounds
// whose shards all completed before a restart fold without any leasing
// or execution.
func (c *Coordinator) runRound(cm *camp, round plan.Round, cursor *int) ([]fault.Outcome, error) {
	n := len(round.Plans)
	windows := splitRound(round.Lo, n, cm.fanout)
	k := len(windows)
	c.mu.Lock()
	base := *cursor
	if base == len(cm.shards) {
		// Fresh round: journal the windows, then append its shard
		// table (under c.mu, like every other journal write).
		if err := c.journal.Append(record{Op: "round", Campaign: cm.id, Round: round.Index, Windows: windows}); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		cm.addRound(round.Index, windows)
	}
	if base+k > len(cm.shards) {
		c.mu.Unlock()
		return nil, fmt.Errorf("fabric: round %d shard table diverged from journal", round.Index)
	}
	shards := cm.shards[base : base+k]
	for j, sh := range shards {
		if sh.lo != windows[j][0] || sh.hi != windows[j][1] {
			c.mu.Unlock()
			return nil, fmt.Errorf("fabric: round %d window [%d,%d) diverged from journaled [%d,%d)",
				round.Index, windows[j][0], windows[j][1], sh.lo, sh.hi)
		}
		if !sh.done {
			sh.plans = round.Plans[sh.lo-round.Lo : sh.hi-round.Lo]
		}
	}
	*cursor = base + k
	c.mu.Unlock()

	for {
		c.mu.Lock()
		pending := 0
		for _, sh := range shards {
			if !sh.done {
				pending++
			}
		}
		failed, reason := cm.state == campFailed, cm.err
		c.mu.Unlock()
		if failed {
			return nil, errors.New(reason)
		}
		if pending == 0 {
			break
		}
		select {
		case <-cm.notify:
		case <-c.baseCtx.Done():
			return nil, context.Canceled
		}
	}

	outcomes := make([]fault.Outcome, n)
	c.mu.Lock()
	for _, sh := range shards {
		for i, rec := range sh.recs {
			outcomes[sh.lo-round.Lo+i] = rec.Outcome
		}
		sh.plans = nil // folded: frees the plans, shard no longer leasable
	}
	c.mu.Unlock()
	return outcomes, nil
}

// AdaptiveRecords returns a finished adaptive campaign's observed
// trial records in plan order — the equivalence tests compare them
// against a single-node RunAdaptive. In-memory only: nil result after
// a post-completion restart (only the wire rendering is journaled).
func (c *Coordinator) AdaptiveRecords(id string) ([]fault.TrialRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cm := c.camps[id]
	if cm == nil {
		return nil, ErrNoCampaign
	}
	if !cm.spec.Adaptive {
		return nil, fmt.Errorf("fabric: campaign %s is not adaptive", id)
	}
	if cm.state == campFailed {
		return nil, fmt.Errorf("fabric: campaign %s failed: %s", id, cm.err)
	}
	if cm.state != campDone {
		return nil, ErrNotFinished
	}
	return cm.recs, nil
}

// Status reports a campaign's cluster-wide progress.
func (c *Coordinator) Status(id string) (CampaignStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cm := c.camps[id]
	if cm == nil {
		return CampaignStatus{}, ErrNoCampaign
	}
	// Totals are the allocation so far: an adaptive planner grows the
	// campaign round by round, a static one is a single round.
	st := CampaignStatus{ID: cm.id, State: cm.state, Error: cm.err, ShardsTotal: len(cm.shards)}
	for _, sh := range cm.shards {
		st.TrialsTotal += sh.hi - sh.lo
		if sh.done {
			st.ShardsDone++
			st.TrialsDone += sh.hi - sh.lo
			continue
		}
		best := 0
		for _, l := range sh.leases {
			if l.progress > best {
				best = l.progress
			}
		}
		st.TrialsDone += best
	}
	return st, nil
}

// Result returns a finished campaign's wire result.
func (c *Coordinator) Result(id string) (json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cm := c.camps[id]
	if cm == nil {
		return nil, ErrNoCampaign
	}
	if cm.state == campFailed {
		return nil, fmt.Errorf("fabric: campaign %s failed: %s", id, cm.err)
	}
	if cm.state != campDone || cm.resultJSON == nil {
		return nil, ErrNotFinished
	}
	return cm.resultJSON, nil
}

// Merged returns a finished static campaign's full engine result —
// the equivalence tests compare it against a single-node run — rebuilt
// from its records exactly as the round driver built it at completion.
// It is nil after a restart (only the wire rendering is journaled) and
// for adaptive campaigns.
func (c *Coordinator) Merged(id string) (*campaign.Result, error) {
	c.mu.Lock()
	cm := c.camps[id]
	if cm == nil {
		c.mu.Unlock()
		return nil, ErrNoCampaign
	}
	if cm.state != campDone {
		c.mu.Unlock()
		return nil, ErrNotFinished
	}
	ws, recs, sdc := cm.spec, cm.recs, cm.sdc
	c.mu.Unlock()
	if ws.Adaptive || recs == nil {
		return nil, nil
	}
	w, err := c.build(ws)
	if err != nil {
		return nil, err
	}
	spec, err := ws.campaignSpec(w)
	if err != nil {
		return nil, err
	}
	spec.Resume = recs
	return c.rebuild(spec, sdc)
}

// sweeper periodically expires dead leases so abandoned shards return
// to the pending pool even when no worker is asking for work.
func (c *Coordinator) sweeper() {
	defer close(c.sweepDone)
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case now := <-t.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// expireLocked drops leases past their deadline; their shards become
// pending again. Caller holds c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		if cm := c.camps[l.campaign]; cm != nil {
			delete(cm.shards[l.shard].leases, id)
		}
		c.leasesExpired++
	}
}

// noteTrials credits n completed trials to the cluster-wide counter;
// caller holds c.mu.
func (c *Coordinator) noteTrials(n int) {
	if n > 0 {
		c.trialsDone += uint64(n)
	}
}

// WriteMetrics renders the fabric gauges in the service's text
// exposition format; the vsd /metrics endpoint appends it when the
// daemon runs as a coordinator.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := 0
	horizon := now.Add(-2 * c.cfg.LeaseTTL)
	for _, t := range c.lastSeen {
		if t.After(horizon) {
			alive++
		}
	}
	byState := map[string]int{campRunning: 0, campDone: 0, campFailed: 0}
	shardsDone, shardsTotal := 0, 0
	for _, cm := range c.camps {
		byState[cm.state]++
		shardsDone += cm.doneShards
		shardsTotal += len(cm.shards)
	}
	fmt.Fprintf(w, "# fabric coordinator metrics\n")
	fmt.Fprintf(w, "vsd_fabric_workers_alive %d\n", alive)
	fmt.Fprintf(w, "vsd_fabric_leases_active %d\n", len(c.leases))
	fmt.Fprintf(w, "vsd_fabric_leases_issued_total %d\n", c.leasesIssued)
	fmt.Fprintf(w, "vsd_fabric_leases_expired_total %d\n", c.leasesExpired)
	fmt.Fprintf(w, "vsd_fabric_leases_stolen_total %d\n", c.leasesStolen)
	fmt.Fprintf(w, "vsd_fabric_duplicate_results_total %d\n", c.dupResults)
	states := make([]string, 0, len(byState))
	for st := range byState {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "vsd_fabric_campaigns{state=%q} %d\n", st, byState[st])
	}
	fmt.Fprintf(w, "vsd_fabric_shards_done %d\n", shardsDone)
	fmt.Fprintf(w, "vsd_fabric_shards_total %d\n", shardsTotal)
	fmt.Fprintf(w, "vsd_fabric_trials_total %d\n", c.trialsDone)
	fmt.Fprintf(w, "vsd_fabric_adaptive_rounds_total %d\n", c.roundsDone)
}
