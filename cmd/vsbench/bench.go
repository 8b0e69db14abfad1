package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/plan"
	"vsresil/internal/summarize"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// The campaign fixture: the identity/vs/VS workload cell on the 8-frame
// Input 2 test preset with app seed 0x5EED5, whose fault-free output
// the repository pins to identityDigest.
const (
	fixtureInput   = 2
	fixtureFrames  = 8
	fixtureAppSeed = 0x5EED5
	identityDigest = 0x8a7474734a0ab448
)

// The workloads that run campaigns back to back report the rate and the
// wall time of a run's fast campaigns, not its median ones. Other
// tenants of the host only ever slow a run down, often for all of it,
// so the fast campaigns estimate the program's own speed far more
// steadily: over ten 25 s runs, the spread of the 90th-percentile
// campaign rate was 0.041 on classic-gpr and 0.068 on adaptive-gpr,
// against 0.095 and 0.153 for the median.
const (
	fastRate = 0.9 // quantile of per-campaign trial rates: trials_per_s
	fastTime = 0.1 // quantile of campaign wall times: campaign_s
)

// sizes scales the workloads. fullSizes is what the benchmark runs; the
// smoke test shrinks every knob.
type sizes struct {
	setups        int     // cold set-ups timed for setup_s
	sample        int     // plans re-executed unstaged per campaign check
	segmentTrials int     // classic-gpr: trials per campaign segment
	precision     float64 // adaptive campaigns: target Wilson half-width
	confidence    float64 // adaptive campaigns: interval level
	vsTrials      int     // vsd-mixed: trials of a vs-summarizer job
	storyTrials   int     // vsd-mixed: trials of a storyboard job
	lightRate     float64 // vsd-mixed: arrivals per second, light phase
	heavyRate     float64 // vsd-mixed: arrivals per second, heavy phase
	fabricTrials  int     // fabric-gpr: static campaign size
	fabricShards  int     // fabric-gpr: static campaign shards
	fabricPrec    float64 // fabric-gpr: adaptive campaigns' target half-width
	fanout        int     // fabric-gpr: adaptive round-shards
	calibTrials   int     // traced runs: campaign size for trace.overhead_ratio
}

func fullSizes() sizes {
	return sizes{
		setups:        15,
		sample:        32,
		segmentTrials: 5000,
		precision:     0.1,
		confidence:    0.95,
		vsTrials:      100,
		storyTrials:   2000,
		lightRate:     3,
		heavyRate:     5,
		fabricTrials:  2000,
		fabricShards:  8,
		fabricPrec:    0.15,
		fanout:        2,
		calibTrials:   1500,
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool
	size     sizes
}

// bench is the state of one run: shared clients, the tracing plane
// (nil unless traced), the metric maps and the correctness tally.
type bench struct {
	cfg       config
	nproc     int
	tr        *tracer
	pipe      *pipeStats
	http      *httpStats
	transport *http.Transport
	runner    campaign.Runner

	// setupTimes and genTimes are the cold set-ups timed so far.
	// spareSetUp makes one more until there are size.setups; campaign
	// loops call it between campaigns, outside every timed interval
	// (see setUp).
	setupTimes, genTimes []float64
	spareSetUp           func() error

	e2e        map[string]float64
	layer      map[string]float64
	attempted  int
	failed     int
	mismatches []string
}

func newBench(cfg config) *bench {
	nproc := runtime.GOMAXPROCS(0)
	b := &bench{
		cfg:   cfg,
		nproc: nproc,
		// Every HTTP request of the run shares this transport, so the
		// benchmark never holds more than nproc connections per host.
		transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		e2e:       make(map[string]float64),
		layer:     make(map[string]float64),
	}
	if cfg.trace {
		b.tr = newTracer()
		b.pipe = newPipeStats(b.tr)
		b.http = newHTTPStats(b.tr)
	}
	return b
}

// client returns an HTTP client on the shared transport; traced runs
// time its requests on behalf of who.
func (b *bench) client(who string) *http.Client {
	var rt http.RoundTripper = b.transport
	if b.http != nil {
		rt = &timedTransport{next: b.transport, stats: b.http, who: who}
	}
	return &http.Client{Transport: rt}
}

// mismatch records a correctness failure; the run then reports
// correct=false and exits non-zero.
func (b *bench) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "vsbench: MISMATCH:", msg)
	b.mismatches = append(b.mismatches, msg)
}

// seedFor derives the k-th campaign seed of the run from -seed
// (splitmix64), so campaigns of one run never share plans.
func (b *bench) seedFor(k uint64) uint64 {
	z := b.cfg.seed*0x9E3779B97F4A7C15 + (k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fixture is the campaign workload every campaign workload runs on.
type fixture struct {
	frames []*imgproc.Gray
	vsApp  *vs.App           // the fixture pipeline, for the host probes
	plain  campaign.Workload // undecorated
	work   campaign.Workload // what campaigns run: decorated when traced
	golden *fault.GoldenRun  // captured through work
	gen    time.Duration     // input generation time
}

// newFixture generates the input, binds the vs summarizer (exactly what
// campaign.Cell{}.Workload builds) and captures the checkpointed golden
// run, asserting the pinned digest.
func (b *bench) newFixture() (*fixture, error) {
	p := virat.TestScale()
	p.Frames = fixtureFrames
	start := time.Now()
	seq, err := virat.GenerateInput(fixtureInput, p, virat.Identity())
	if err != nil {
		return nil, err
	}
	frames := seq.Frames()
	gen := time.Since(start)

	cfg := vs.DefaultConfig(vs.AlgVS)
	cfg.Seed = fixtureAppSeed
	plain := campaign.Summarize(summarize.VS{Cfg: cfg}, seq)
	work := b.pipe.decorate(plain)
	golden, err := fault.CaptureGoldenStaged(work.Staged)
	if err != nil {
		return nil, err
	}
	if d := digest(golden.Output); d != identityDigest {
		b.mismatch("fixture golden digest %#016x, want %#016x", d, uint64(identityDigest))
	}
	return &fixture{frames: frames, vsApp: vs.New(cfg, len(frames)), plain: plain, work: work, golden: golden, gen: gen}, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// setUp builds everything a run needs from nothing: the fixture (input
// generation and golden capture) plus, through start, the service or
// cluster the workload drives, whose handle T and teardown start
// returns. setUp times size.setups such cold set-ups and keeps the last
// one it makes for the run. Host speed changes within seconds here, so
// it makes a third of them now; campaign loops make one more between
// campaigns (spareSetUp) and measure makes the rest after the measured
// part. setup_s then samples the same host conditions as the other
// metrics.
func setUp[T any](b *bench, start func(fx *fixture) (T, func(), error)) (*fixture, T, func(), error) {
	once := func() (*fixture, T, func(), error) {
		var none T
		t0 := time.Now()
		fx, err := b.newFixture()
		if err != nil {
			return nil, none, nil, fmt.Errorf("set-up: %w", err)
		}
		h, stop, err := start(fx)
		if err != nil {
			return nil, none, nil, fmt.Errorf("set-up: %w", err)
		}
		b.setupTimes = append(b.setupTimes, time.Since(t0).Seconds())
		b.genTimes = append(b.genTimes, fx.gen.Seconds())
		return fx, h, stop, nil
	}
	b.spareSetUp = func() error {
		if len(b.setupTimes) >= b.cfg.size.setups {
			return nil
		}
		_, _, stop, err := once()
		if err == nil {
			stop()
		}
		return err
	}
	for {
		fx, h, stop, err := once()
		if err != nil || len(b.setupTimes) >= (b.cfg.size.setups+2)/3 {
			return fx, h, stop, err
		}
		stop()
	}
}

// fixtureOnly is the start of a workload that drives the campaign
// engine directly: nothing beyond the fixture to set up.
func fixtureOnly(*fixture) (struct{}, func(), error) { return struct{}{}, func() {}, nil }

// measure runs the measured part of a workload between two host-speed
// probes: the fixture pipeline on the probe.Nop path before and after,
// and the hypervisor steal over the interval. A shift of either between
// two sets of runs is host drift, not a code effect. Meanwhile it
// samples the live heap for live_heap_mib; afterwards it makes the
// set-ups setUp left over.
func (b *bench) measure(fx *fixture, body func() error) error {
	before, err := nopPipelineMS(fx)
	if err != nil {
		return err
	}
	cpu0 := readCPU()
	heap := sampleLiveHeap()
	err = body()
	b.e2e["live_heap_mib"] = heap()
	if err != nil {
		return err
	}
	steal := stealRatio(cpu0, readCPU())
	after, err := nopPipelineMS(fx)
	if err != nil {
		return err
	}
	b.layer["host.nop_pipeline_ms.before"] = before
	b.layer["host.nop_pipeline_ms.after"] = after
	b.layer["host.steal_ratio"] = steal
	fmt.Fprintf(os.Stderr, "vsbench: host nop pipeline %.3f ms before, %.3f ms after; steal %.4f\n", before, after, steal)
	for len(b.setupTimes) < b.cfg.size.setups {
		if err := b.spareSetUp(); err != nil {
			return err
		}
	}
	b.e2e["setup_s"] = quantile(b.setupTimes, 0.5)
	b.layer["virat.generate_s"] = quantile(b.genTimes, 0.5)
	return nil
}

// campaignSpec is the fixed-budget fixture campaign with seed k of the
// run. Region is set explicitly: the zero Region is fault.RApp.
func (b *bench) campaignSpec(fx *fixture, w campaign.Workload, trials int, k uint64) campaign.Spec {
	return campaign.Spec{
		Workload: w,
		Class:    fault.GPR,
		Region:   fault.RAny,
		Trials:   trials,
		Seed:     b.seedFor(k),
		Workers:  b.nproc,
		Golden:   fx.golden,
	}
}

// adaptiveConfig is the planner configuration RunAdaptive and the
// fabric coordinator build for a campaign of seed and precision;
// replays rebuild the planner from it.
func (b *bench) adaptiveConfig(seed uint64, precision float64) plan.AdaptiveConfig {
	return plan.AdaptiveConfig{
		Class:      fault.GPR,
		Region:     fault.RAny,
		Seed:       seed,
		Precision:  precision,
		Confidence: b.cfg.size.confidence,
	}
}

// replay is a plan set regenerated by feeding a campaign's recorded
// outcomes back through a fresh planner, with the planner's own cost.
type replay struct {
	plans         []fault.Plan
	rounds        int
	next, observe time.Duration
}

// replayPlanner drives p with recs as the observed outcomes and
// requires it to emit exactly the recorded plan-index space.
func replayPlanner(p plan.Planner, recs []fault.TrialRecord) (replay, error) {
	var r replay
	for {
		t0 := time.Now()
		round, ok := p.Next()
		r.next += time.Since(t0)
		if !ok {
			break
		}
		if round.Lo != len(r.plans) || round.Lo+len(round.Plans) > len(recs) {
			return r, fmt.Errorf("planner round %d window [%d,%d) does not continue the %d recorded trials",
				round.Index, round.Lo, round.Lo+len(round.Plans), len(recs))
		}
		outcomes := make([]fault.Outcome, len(round.Plans))
		for i := range outcomes {
			outcomes[i] = recs[round.Lo+i].Outcome
		}
		t1 := time.Now()
		p.Observe(round, outcomes)
		r.observe += time.Since(t1)
		r.plans = append(r.plans, round.Plans...)
		r.rounds++
	}
	if len(r.plans) != len(recs) {
		return r, fmt.Errorf("planner emitted %d plans for %d recorded trials", len(r.plans), len(recs))
	}
	return r, nil
}

// planTotals accumulates planner replays for the plan.* metrics.
type planTotals struct {
	rounds, trials int
	next, observe  time.Duration
}

func (t *planTotals) add(r replay) {
	t.rounds += r.rounds
	t.trials += len(r.plans)
	t.next += r.next
	t.observe += r.observe
}

func (b *bench) setPlanLayer(t planTotals) {
	if t.rounds == 0 {
		return
	}
	b.layer["plan.next_us_per_round"] = float64(t.next) / 1e3 / float64(t.rounds)
	b.layer["plan.observe_us_per_round"] = float64(t.observe) / 1e3 / float64(t.rounds)
	b.layer["plan.rounds"] = float64(t.rounds)
	b.layer["plan.trials_per_round"] = float64(t.trials) / float64(t.rounds)
}

// replayRun executes a regenerated plan set as one static window and
// requires every record of the original campaign back bit for bit. It
// returns the window's executed-trial rate.
func (b *bench) replayRun(ctx context.Context, label string, w campaign.Workload, golden *fault.GoldenRun, plans []fault.Plan, recs []fault.TrialRecord) float64 {
	b.attempted++
	res, err := b.runner.RunPlans(ctx, campaign.Spec{
		Workload: w, Class: fault.GPR, Region: fault.RAny, Workers: b.nproc, Golden: golden,
	}, plans, 0)
	if err != nil {
		b.failed++
		b.mismatch("%s: replay: %v", label, err)
		return 0
	}
	for i := range recs {
		if got := res.Fault.Trials[i].Record(i); got != recs[i] {
			b.mismatch("%s: replayed trial %d = %+v, campaign recorded %+v", label, i, got, recs[i])
			break
		}
	}
	return float64(res.Executed) / res.Elapsed.Seconds()
}

// checkSample re-executes a seeded sample of a campaign's plans through
// an unstaged workload over the same App, so each sampled trial runs
// the pipeline from its first tap, and requires the records the
// campaign produced for them.
func (b *bench) checkSample(ctx context.Context, label string, app fault.App, golden *fault.GoldenRun, plans []fault.Plan, recs []fault.TrialRecord, seed uint64) {
	b.attempted++
	n := min(b.cfg.size.sample, len(plans))
	idx := rand.New(rand.NewPCG(seed, 0x5a3)).Perm(len(plans))[:n]
	sort.Ints(idx)
	sample := make([]fault.Plan, n)
	for j, i := range idx {
		sample[j] = plans[i]
	}
	res, err := b.runner.RunPlans(ctx, campaign.Spec{
		Workload: campaign.NewWorkload(label+"/unstaged", "", app),
		Class:    fault.GPR, Region: fault.RAny, Workers: b.nproc, Golden: golden,
	}, sample, 0)
	if err != nil {
		b.failed++
		b.mismatch("%s: unstaged sample: %v", label, err)
		return
	}
	for j, i := range idx {
		if got := res.Fault.Trials[j].Record(i); got != recs[i] {
			b.mismatch("%s: plan %d unstaged = %+v, campaign recorded %+v", label, i, got, recs[i])
			return
		}
	}
}

// records returns a campaign result's trial records in plan order.
func records(res *campaign.Result) []fault.TrialRecord {
	recs := make([]fault.TrialRecord, len(res.Fault.Trials))
	for i := range recs {
		recs[i] = res.Fault.Trials[i].Record(res.Fault.Config.PlanOffset + i)
	}
	return recs
}

// setOutcomes reports the exact outcome counts of the workload's first
// campaign, which -seed alone determines.
func (b *bench) setOutcomes(c [fault.NumOutcomes]int) {
	b.layer["fault.outcome_mask"] = float64(c[fault.OutcomeMask])
	b.layer["fault.outcome_sdc"] = float64(c[fault.OutcomeSDC])
	b.layer["fault.outcome_crash"] = float64(c[fault.OutcomeCrash])
	b.layer["fault.outcome_hang"] = float64(c[fault.OutcomeHang])
}

// execTotals is what the measured campaigns' executor reported or the
// decorator saw, for the fault.* metrics.
type execTotals struct {
	workerTime time.Duration // Σ window wall × trial workers
	busy       time.Duration // pipeline time inside those windows
	executed   int
	buckets    int // checkpoint buckets scheduled (one per window and bucket)
	batched    int // trials that resumed from a bucket's checkpoint
	prepHits   uint64
	prepMisses uint64
}

func (b *bench) setExecLayer(t execTotals) {
	if t.executed == 0 {
		return
	}
	if t.busy > 0 {
		b.layer["fault.overhead_us_per_trial"] = float64(t.workerTime-t.busy) / 1e3 / float64(t.executed)
	}
	b.layer["fault.buckets"] = float64(t.buckets)
	b.layer["fault.restores_saved_ratio"] = ratio(float64(t.batched-t.buckets), float64(t.batched))
	b.layer["fault.prep_hit_ratio"] = ratio(float64(t.prepHits), float64(t.prepHits+t.prepMisses))
	if b.pipe != nil {
		b.layer["fault.early_mask_ratio"] = ratio(float64(b.pipe.earlyMsk.Load()), float64(t.executed))
		b.layer["fault.converged_ratio"] = ratio(float64(b.pipe.converged.Load()), float64(t.executed))
	}
}

// setPipeLayer reports what the pipeline decorator measured. Call it
// before any calibration campaign adds to the counters.
func (b *bench) setPipeLayer() {
	p := b.pipe
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b.layer["vs.golden_s"] = durQuantile(p.goldenDur, 0.5).Seconds()
	for i, name := range stageNames {
		col := make([]time.Duration, len(p.goldenStages))
		for j, st := range p.goldenStages {
			col[j] = st[i]
		}
		b.layer["vs.golden_stage_s."+name] = durQuantile(col, 0.5).Seconds()
		if i > 0 {
			b.layer["vs.suffix_stage_s."+name] = time.Duration(p.suffixNS[i].Load()).Seconds()
		}
	}
	b.layer["vs.resume_busy_s"] = time.Duration(p.resumeNS.Load()).Seconds()
	b.layer["vs.resume_p50_us"] = float64(durQuantile(p.resumeDur, 0.5)) / 1e3
	b.layer["vs.resume_p99_us"] = float64(durQuantile(p.resumeDur, 0.99)) / 1e3
	b.layer["vs.full_runs"] = float64(p.fullRuns.Load())
	b.layer["vs.prepare_calls"] = float64(p.prepCalls.Load())
	b.layer["vs.prepare_s"] = time.Duration(p.prepNS.Load()).Seconds()
	b.layer["vs.state_equal_s"] = time.Duration(p.eqNS.Load()).Seconds()
	b.layer["vs.boundaries_per_trial"] = ratio(float64(p.boundaries.Load()), float64(p.resumes.Load()))
}

// setTraceOverhead runs the same fixed-budget campaign on the plain and
// the decorated fixture workload, alternating five times, and reports
// the ratio of their median trial rates as trace.overhead_ratio, plus
// probe.tap_overhead_ratio. Traced runs only, after setPipeLayer.
func (b *bench) setTraceOverhead(ctx context.Context, fx *fixture) error {
	var tps [2][]float64 // plain, traced
	for i := uint64(0); i < 5; i++ {
		for j, w := range []campaign.Workload{fx.plain, fx.work} {
			res, err := b.runner.Run(ctx, b.campaignSpec(fx, w, b.cfg.size.calibTrials, 1000+i))
			if err != nil {
				return fmt.Errorf("trace calibration: %w", err)
			}
			tps[j] = append(tps[j], float64(res.Executed)/res.Elapsed.Seconds())
		}
	}
	b.layer["trace.overhead_ratio"] = quantile(tps[0], 0.5) / quantile(tps[1], 0.5)
	tap, err := tapOverheadRatio(fx)
	if err != nil {
		return err
	}
	b.layer["probe.tap_overhead_ratio"] = tap
	return nil
}

// output is the benchmark's last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the output: the end-to-end metrics for an untraced
// run, the per-layer ones for a traced run. Every listed metric is
// present (a layer the workload bypasses reads 0); a value under a name
// that is not listed is a bug.
func (b *bench) result() (*output, error) {
	for _, set := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, b.e2e}, {perLayer, b.layer}} {
		known := make(map[string]bool, len(set.defs))
		for _, d := range set.defs {
			known[d.name] = true
		}
		for name := range set.vals {
			if !known[name] {
				return nil, fmt.Errorf("metric %q is not listed", name)
			}
		}
	}
	defs, vals := endToEnd, b.e2e
	if b.cfg.trace {
		defs, vals = perLayer, b.layer
	}
	out := &output{
		Correct:   len(b.mismatches) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity; a failed request's latency is
			// reported as a value no limit accepts.
			v = math.MaxFloat32
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
