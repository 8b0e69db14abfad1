package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/plan"
	"vsresil/internal/probe"
)

// latencyBuckets are the per-job-type latency histogram upper bounds,
// in seconds. Summarize jobs land in the sub-second buckets at test
// scale; paper-scale campaigns reach the tail.
var latencyBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

// trialWindow is the sliding window the trials/sec gauge is computed
// over.
const trialWindow = 10 * time.Second

// metrics collects the service's counters and gauges. Everything is
// guarded by one mutex: update rates are bounded by trial batches and
// job completions, far below contention range.
type metrics struct {
	mu    sync.Mutex
	start time.Time

	jobsAccepted  uint64
	jobsCompleted map[JobType]map[JobState]uint64
	trialsTotal   uint64
	goldenHits    uint64
	goldenMisses  uint64

	// workloadTrials splits the trial counter by campaign workload
	// cell, backing the per-workload /metrics series.
	workloadTrials map[workloadCell]uint64

	// bucket scheduler accumulators fed by fault.SchedStats after each
	// campaign run; bucketMax is the largest single bucket seen, the
	// histogram's interesting tail for a text exposition.
	bucketCampaigns   uint64
	bucketsTotal      uint64
	bucketTrialsTotal uint64
	bucketMax         int
	bucketEarlyMasks  uint64
	bucketConverged   uint64

	// adaptive round accumulators fed per completed planner round and
	// per finished adaptive campaign; strataHW holds each stratum's
	// latest estimate for the half-width gauge series.
	roundCampaigns uint64
	roundsTotal    uint64
	roundTrials    uint64
	roundConverged uint64
	roundLastMaxHW float64
	strataHW       map[stratumCell]stratumGauge

	// executor-session accumulators fed by fault.SessionStats after
	// each adaptive campaign: how much the persistent session amortized
	// across its round loop.
	sessionCampaigns  uint64
	sessionPrepHits   uint64
	sessionPrepMisses uint64
	sessionRounds     uint64
	sessionReused     uint64

	// trialTimes is a per-second ring of trial completions backing the
	// trials/sec gauge.
	trialTimes [16]struct {
		sec int64
		n   uint64
	}

	// latency histograms: per type, count per bucket (+ overflow) and
	// a running sum for the mean.
	latCounts map[JobType][]uint64
	latSum    map[JobType]float64
	latN      map[JobType]uint64

	// per-stage accumulators fed by probe.Meter snapshots from
	// summarize runs; indexed by probe.Region.
	stageRuns    uint64
	stageWall    [probe.NumRegions]time.Duration
	stageOps     [probe.NumRegions][probe.NumOpClasses]uint64
	stageIntTaps [probe.NumRegions]uint64
	stageFPTaps  [probe.NumRegions]uint64
}

func newMetrics() *metrics {
	return &metrics{
		start:          time.Now(),
		jobsCompleted:  make(map[JobType]map[JobState]uint64),
		workloadTrials: make(map[workloadCell]uint64),
		latCounts:      make(map[JobType][]uint64),
		latSum:         make(map[JobType]float64),
		latN:           make(map[JobType]uint64),
	}
}

// workloadCell identifies one campaign workload in canonical label
// form: the (scenario, summarizer, algorithm) tuple of the matrix.
type workloadCell struct {
	Scenario   string
	Summarizer string
	Algorithm  string
}

// workloadTrialsDone records n completed trials against a workload
// cell's /metrics series.
func (m *metrics) workloadTrialsDone(c workloadCell, n int) {
	m.mu.Lock()
	m.workloadTrials[c] += uint64(n)
	m.mu.Unlock()
}

func (m *metrics) jobAccepted() {
	m.mu.Lock()
	m.jobsAccepted++
	m.mu.Unlock()
}

// trialsDone records n completed injection trials.
func (m *metrics) trialsDone(n int) {
	now := time.Now()
	m.mu.Lock()
	m.trialsTotal += uint64(n)
	sec := now.Unix()
	slot := &m.trialTimes[sec%int64(len(m.trialTimes))]
	if slot.sec != sec {
		slot.sec = sec
		slot.n = 0
	}
	slot.n += uint64(n)
	m.mu.Unlock()
}

// trialsPerSec returns the trial completion rate over the sliding
// window; caller holds mu.
func (m *metrics) trialsPerSec(now time.Time) float64 {
	cutoff := now.Add(-trialWindow).Unix()
	var n uint64
	for _, s := range m.trialTimes {
		if s.sec > cutoff {
			n += s.n
		}
	}
	return float64(n) / trialWindow.Seconds()
}

// goldenLookup records a golden-run cache lookup.
func (m *metrics) goldenLookup(hit bool) {
	m.mu.Lock()
	if hit {
		m.goldenHits++
	} else {
		m.goldenMisses++
	}
	m.mu.Unlock()
}

// stagesDone folds one metered pipeline run's per-region stats into
// the service-lifetime stage accumulators.
func (m *metrics) stagesDone(snap []probe.RegionStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stageRuns++
	for _, rs := range snap {
		if rs.Region >= probe.NumRegions {
			continue
		}
		m.stageWall[rs.Region] += rs.Wall
		m.stageIntTaps[rs.Region] += rs.IntTaps
		m.stageFPTaps[rs.Region] += rs.FPTaps
		for c := probe.OpClass(0); c < probe.NumOpClasses; c++ {
			m.stageOps[rs.Region][c] += rs.Ops[c]
		}
	}
}

// stratumCell identifies one adaptive stratum's /metrics series.
type stratumCell struct {
	Class  string
	Region string
	Bits   string
}

// stratumGauge is a stratum's latest observed estimate.
type stratumGauge struct {
	Trials    int
	HalfWidth float64
	Done      bool
}

// roundDone records one completed adaptive planner round.
func (m *metrics) roundDone(st campaign.RoundStatus) {
	m.mu.Lock()
	m.roundsTotal++
	m.roundTrials += uint64(st.RoundTrials)
	m.roundLastMaxHW = st.MaxHalfWidth
	m.mu.Unlock()
}

// adaptiveDone folds one finished adaptive campaign's final strata into
// the half-width gauge series.
func (m *metrics) adaptiveDone(class string, strata []plan.StratumStatus, converged bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.roundCampaigns++
	if converged {
		m.roundConverged++
	}
	if m.strataHW == nil {
		m.strataHW = make(map[stratumCell]stratumGauge)
	}
	for _, st := range strata {
		m.strataHW[stratumCell{Class: class, Region: st.Region.String(), Bits: st.Bits.String()}] =
			stratumGauge{Trials: st.Trials, HalfWidth: st.HalfWidth, Done: st.Done}
	}
}

// sessionDone folds one campaign's executor-session counters into the
// service-lifetime session gauges.
func (m *metrics) sessionDone(s fault.SessionStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionCampaigns++
	m.sessionPrepHits += s.BucketPrepHits
	m.sessionPrepMisses += s.BucketPrepMisses
	m.sessionRounds += s.RoundsServed
	m.sessionReused += s.WorkersReused
}

// bucketsDone folds one campaign's scheduler statistics into the
// service-lifetime bucket gauges.
func (m *metrics) bucketsDone(s fault.SchedStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bucketCampaigns++
	m.bucketsTotal += uint64(s.Buckets)
	m.bucketTrialsTotal += uint64(s.Batched)
	m.bucketEarlyMasks += uint64(s.EarlyMasks)
	m.bucketConverged += uint64(s.Converged)
	for _, n := range s.BucketSizes {
		if n > m.bucketMax {
			m.bucketMax = n
		}
	}
}

// jobFinished records a job reaching a terminal (or requeued) state
// with its run latency.
func (m *metrics) jobFinished(t JobType, s JobState, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byState := m.jobsCompleted[t]
	if byState == nil {
		byState = make(map[JobState]uint64)
		m.jobsCompleted[t] = byState
	}
	byState[s]++
	counts := m.latCounts[t]
	if counts == nil {
		counts = make([]uint64, len(latencyBuckets)+1)
		m.latCounts[t] = counts
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	counts[i]++
	m.latSum[t] += sec
	m.latN[t]++
}

// gauges is the point-in-time queue state the Service supplies to the
// /metrics rendering.
type gauges struct {
	queueDepth  int
	workers     int
	busyWorkers int
	jobsByState map[JobState]int
}

// write renders the Prometheus-style text exposition.
func (m *metrics) write(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	fmt.Fprintf(w, "# vsd job-queue service metrics\n")
	fmt.Fprintf(w, "vsd_uptime_seconds %.1f\n", now.Sub(m.start).Seconds())
	fmt.Fprintf(w, "vsd_jobs_accepted_total %d\n", m.jobsAccepted)
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "vsd_jobs{state=%q} %d\n", st, g.jobsByState[st])
	}
	types := make([]JobType, 0, len(m.jobsCompleted))
	for t := range m.jobsCompleted {
		types = append(types, t)
	}
	sort.Slice(types, func(a, b int) bool { return types[a] < types[b] })
	for _, t := range types {
		states := make([]JobState, 0, len(m.jobsCompleted[t]))
		for s := range m.jobsCompleted[t] {
			states = append(states, s)
		}
		sort.Slice(states, func(a, b int) bool { return states[a] < states[b] })
		for _, s := range states {
			fmt.Fprintf(w, "vsd_jobs_finished_total{type=%q,state=%q} %d\n", t, s, m.jobsCompleted[t][s])
		}
	}
	fmt.Fprintf(w, "vsd_queue_depth %d\n", g.queueDepth)
	fmt.Fprintf(w, "vsd_workers %d\n", g.workers)
	fmt.Fprintf(w, "vsd_workers_busy %d\n", g.busyWorkers)
	if g.workers > 0 {
		fmt.Fprintf(w, "vsd_worker_utilization %.3f\n", float64(g.busyWorkers)/float64(g.workers))
	}
	fmt.Fprintf(w, "vsd_trials_total %d\n", m.trialsTotal)
	fmt.Fprintf(w, "vsd_trials_per_sec %.1f\n", m.trialsPerSec(now))
	if len(m.workloadTrials) > 0 {
		cells := make([]workloadCell, 0, len(m.workloadTrials))
		for c := range m.workloadTrials {
			cells = append(cells, c)
		}
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].Scenario != cells[b].Scenario {
				return cells[a].Scenario < cells[b].Scenario
			}
			if cells[a].Summarizer != cells[b].Summarizer {
				return cells[a].Summarizer < cells[b].Summarizer
			}
			return cells[a].Algorithm < cells[b].Algorithm
		})
		for _, c := range cells {
			fmt.Fprintf(w, "vsd_campaign_workload_trials_total{scenario=%q,summarizer=%q,algorithm=%q} %d\n",
				c.Scenario, c.Summarizer, c.Algorithm, m.workloadTrials[c])
		}
	}
	fmt.Fprintf(w, "vsd_golden_cache_hits_total %d\n", m.goldenHits)
	fmt.Fprintf(w, "vsd_golden_cache_misses_total %d\n", m.goldenMisses)
	if m.bucketCampaigns > 0 {
		fmt.Fprintf(w, "vsd_campaign_bucket_campaigns_total %d\n", m.bucketCampaigns)
		fmt.Fprintf(w, "vsd_campaign_bucket_count_total %d\n", m.bucketsTotal)
		fmt.Fprintf(w, "vsd_campaign_bucket_trials_total %d\n", m.bucketTrialsTotal)
		fmt.Fprintf(w, "vsd_campaign_bucket_max_trials %d\n", m.bucketMax)
		fmt.Fprintf(w, "vsd_campaign_bucket_early_masks_total %d\n", m.bucketEarlyMasks)
		fmt.Fprintf(w, "vsd_campaign_bucket_converged_total %d\n", m.bucketConverged)
	}
	if m.roundsTotal > 0 {
		fmt.Fprintf(w, "vsd_campaign_round_campaigns_total %d\n", m.roundCampaigns)
		fmt.Fprintf(w, "vsd_campaign_round_count_total %d\n", m.roundsTotal)
		fmt.Fprintf(w, "vsd_campaign_round_trials_total %d\n", m.roundTrials)
		fmt.Fprintf(w, "vsd_campaign_round_converged_total %d\n", m.roundConverged)
		fmt.Fprintf(w, "vsd_campaign_round_last_max_half_width %.4f\n", m.roundLastMaxHW)
	}
	if m.sessionCampaigns > 0 {
		fmt.Fprintf(w, "vsd_campaign_session_campaigns_total %d\n", m.sessionCampaigns)
		fmt.Fprintf(w, "vsd_campaign_session_bucket_prep_hits %d\n", m.sessionPrepHits)
		fmt.Fprintf(w, "vsd_campaign_session_bucket_prep_misses %d\n", m.sessionPrepMisses)
		fmt.Fprintf(w, "vsd_campaign_session_rounds_served %d\n", m.sessionRounds)
		fmt.Fprintf(w, "vsd_campaign_session_workers_reused %d\n", m.sessionReused)
	}
	if len(m.strataHW) > 0 {
		cells := make([]stratumCell, 0, len(m.strataHW))
		for c := range m.strataHW {
			cells = append(cells, c)
		}
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].Class != cells[b].Class {
				return cells[a].Class < cells[b].Class
			}
			if cells[a].Region != cells[b].Region {
				return cells[a].Region < cells[b].Region
			}
			return cells[a].Bits < cells[b].Bits
		})
		for _, c := range cells {
			g := m.strataHW[c]
			fmt.Fprintf(w, "vsd_campaign_stratum_half_width{class=%q,region=%q,bits=%q} %.4f\n",
				c.Class, c.Region, c.Bits, g.HalfWidth)
			fmt.Fprintf(w, "vsd_campaign_stratum_trials{class=%q,region=%q,bits=%q} %d\n",
				c.Class, c.Region, c.Bits, g.Trials)
			done := 0
			if g.Done {
				done = 1
			}
			fmt.Fprintf(w, "vsd_campaign_stratum_done{class=%q,region=%q,bits=%q} %d\n",
				c.Class, c.Region, c.Bits, done)
		}
	}
	if m.stageRuns > 0 {
		fmt.Fprintf(w, "vsd_stage_metered_runs_total %d\n", m.stageRuns)
		for r := probe.Region(0); r < probe.NumRegions; r++ {
			fmt.Fprintf(w, "vsd_stage_latency_seconds_total{stage=%q} %.6f\n", r, m.stageWall[r].Seconds())
		}
		for r := probe.Region(0); r < probe.NumRegions; r++ {
			for c := probe.OpClass(0); c < probe.NumOpClasses; c++ {
				if n := m.stageOps[r][c]; n > 0 {
					fmt.Fprintf(w, "vsd_stage_ops_total{stage=%q,class=%q} %d\n", r, c, n)
				}
			}
		}
		for r := probe.Region(0); r < probe.NumRegions; r++ {
			if n := m.stageIntTaps[r]; n > 0 {
				fmt.Fprintf(w, "vsd_stage_taps_total{stage=%q,kind=\"int\"} %d\n", r, n)
			}
			if n := m.stageFPTaps[r]; n > 0 {
				fmt.Fprintf(w, "vsd_stage_taps_total{stage=%q,kind=\"fp\"} %d\n", r, n)
			}
		}
	}
	for _, t := range types {
		counts := m.latCounts[t]
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += counts[i]
			fmt.Fprintf(w, "vsd_job_latency_seconds_bucket{type=%q,le=%q} %d\n", t, fmt.Sprintf("%g", ub), cum)
		}
		cum += counts[len(latencyBuckets)]
		fmt.Fprintf(w, "vsd_job_latency_seconds_bucket{type=%q,le=\"+Inf\"} %d\n", t, cum)
		fmt.Fprintf(w, "vsd_job_latency_seconds_sum{type=%q} %.3f\n", t, m.latSum[t])
		fmt.Fprintf(w, "vsd_job_latency_seconds_count{type=%q} %d\n", t, m.latN[t])
	}
}
