package fault

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vsresil/internal/stats"
)

// Outcome is the paper's four-way classification of an injected
// fault's effect (§V-A).
type Outcome uint8

// Outcomes in the paper's order.
const (
	OutcomeMask Outcome = iota
	OutcomeCrash
	OutcomeSDC
	OutcomeHang
	NumOutcomes
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeMask:
		return "Mask"
	case OutcomeCrash:
		return "Crash"
	case OutcomeSDC:
		return "SDC"
	case OutcomeHang:
		return "Hang"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// CrashKind subdivides crashes the way the paper's analysis does
// (§VI-A): 92% segmentation-fault-like signals vs 8% application
// aborts from internal constraint violations.
type CrashKind uint8

// Crash subcategories.
const (
	CrashNone  CrashKind = iota
	CrashSegv            // recovered runtime panic (memory access violation analogue)
	CrashAbort           // application returned an internal-constraint error
)

// String implements fmt.Stringer.
func (k CrashKind) String() string {
	switch k {
	case CrashNone:
		return "none"
	case CrashSegv:
		return "segv"
	case CrashAbort:
		return "abort"
	default:
		return fmt.Sprintf("CrashKind(%d)", uint8(k))
	}
}

// App is one run of the application under test. It must be safe to
// call concurrently with distinct machines and must produce a
// deterministic output for a nil-plan machine (the golden run).
// The returned bytes are the application's output artifact (for VS, an
// encoded panorama); AFI's result check is a byte comparison.
type App func(m *Machine) ([]byte, error)

// Default liveness windows, in taps. GPR values (indices, bounds,
// pixels in flight) stay live across many instructions; FPR values in
// this workload are convert-transform-convert temporaries (§VI-A), so
// a flipped FPR bit almost never meets a live use.
const (
	DefaultGPRWindow = 96
	DefaultFPRWindow = 2
)

// DefaultStepFactor sizes the hang budget as a multiple of the golden
// run's step count.
const DefaultStepFactor = 4

// Config parameterizes a fault-injection campaign.
type Config struct {
	// Trials is the number of error injections (the paper uses 1000
	// per register class, 5000 for the SDC-quality study).
	Trials int
	// Class selects GPR or FPR injections.
	Class Class
	// Region restricts injections to one function (RAny = whole app).
	Region Region
	// Window overrides the liveness window (0 = class default).
	Window uint64
	// Seed makes the campaign reproducible.
	Seed uint64
	// Workers bounds the number of concurrent trial workers
	// (0 = GOMAXPROCS). The effective count is clamped to the number
	// of pending trials — plans not already satisfied by Resume
	// records — so a mostly-resumed campaign never spawns idle
	// goroutines. Workers set inter-trial parallelism only; it
	// composes with bucket batching (trials resuming from the same
	// golden checkpoint are fed to workers as bucket chunks, see
	// fastpath.Batching) and with intra-trial kernel tiling
	// (fastpath.Tiling), and results are bit-identical for every
	// worker count either way.
	Workers int
	// StepFactor sizes the hang budget as a multiple of golden steps
	// (0 = DefaultStepFactor).
	StepFactor float64
	// KeepSDCOutputs retains the corrupted output bytes of every SDC
	// trial for quality analysis (Fig 12).
	KeepSDCOutputs bool
	// CheckpointEvery controls the rate-curve snapshot interval
	// (0 = Trials/20, for Fig 9a).
	CheckpointEvery int
	// MaxSDCOutputs caps how many SDC outputs KeepSDCOutputs retains
	// (<= 0 = unlimited). Long campaigns otherwise hold every corrupted
	// panorama in memory at once. Once the cap is hit, SDC trials are
	// still counted but only the MaxSDCOutputs lowest-index SDC trials
	// keep their output bytes — the retained subset is deterministic
	// regardless of worker count and completion order.
	MaxSDCOutputs int
	// OnSDCOutput, if set, streams each SDC trial's corrupted output to
	// the callback instead of retaining it in Result.Trials, bounding
	// campaign memory regardless of SDC count. Invocations are
	// serialized by the campaign. KeepSDCOutputs and MaxSDCOutputs are
	// ignored when OnSDCOutput is set.
	OnSDCOutput func(rec TrialRecord, output []byte)
	// OnTrial, if set, is called once per completed injection with the
	// trial's checkpoint record, in completion order (not index order).
	// Invocations are serialized by the campaign. A service journals
	// these records so an interrupted campaign can be resumed.
	OnTrial func(rec TrialRecord)
	// Resume holds checkpoint records of trials already completed by a
	// previous, interrupted run of the same Config (same Trials, Class,
	// Region, Window and Seed). Those trials are merged into the Result
	// without re-executing; because plans are pre-generated from Seed
	// and each trial is deterministic in its plan, a resumed campaign
	// reaches the same outcome counts as an uninterrupted one.
	Resume []TrialRecord
	// PlanTrials is the plan-space size when this run is one shard of a
	// larger campaign: plans for trials [0, PlanTrials) are
	// pre-generated from Seed exactly as the unsharded campaign would
	// generate them, and this run executes only the window
	// [PlanOffset, PlanOffset+Trials). 0 means Trials (the whole
	// campaign is one shard). TrialRecord indices are plan indices, so
	// checkpoints from a shard replay into the same shard — or into the
	// unsharded campaign — unambiguously.
	PlanTrials int
	// PlanOffset is the first plan index this run executes (sharding).
	PlanOffset int
	// Plans, when non-nil, supplies the exact plans this run executes
	// instead of drawing them from Seed — the planner seam
	// (internal/plan) computes rounds of plans and hands each round to
	// the executor through this field. len(Plans) must equal Trials.
	// PlanOffset still names the plan index of Plans[0] (TrialRecord
	// indices stay plan indices, so journaling and resume work
	// unchanged), and PlanTrials must cover PlanOffset+Trials. Seed is
	// ignored for plan generation when Plans is set.
	Plans []Plan
	// Golden, when non-nil, is a precomputed golden run of the same
	// app, and RunCampaign skips its own fault-free execution. Because
	// the application is deterministic under a nil plan, a captured
	// golden run is valid for every campaign over the same app and
	// input, whatever the class, region or seed — the Fig 9/10/11
	// harnesses share one per app, and the vsd service caches them per
	// job spec.
	Golden *GoldenRun
	// Staged, when non-nil, is the stage-resumable view of the same
	// app, enabling golden-prefix skipping: trials whose injection site
	// falls past a recorded stage boundary resume from that boundary's
	// golden checkpoint instead of re-executing the fault-free prefix.
	// Requires a golden run carrying checkpoints of the current schema
	// (CaptureGoldenStaged); campaigns fall back to full execution
	// otherwise, and the fastpath.PrefixSkip kill switch forces full
	// execution for equivalence testing.
	Staged StagedApp
}

// GoldenRun is the reusable result of one fault-free execution: the
// reference output the SDC check compares against plus the tap-space
// geometry every plan is drawn from. Capture it once with
// CaptureGolden and share it across campaigns of the same app.
type GoldenRun struct {
	// Output is the application's fault-free output artifact.
	Output []byte
	// Steps is the golden run's dynamic step count (sizes hang budgets).
	Steps uint64
	// GPRTaps and FPRTaps are the whole-program tap-space sizes.
	GPRTaps, FPRTaps uint64
	// RegionGPR and RegionFPR are the per-region tap-space sizes.
	RegionGPR, RegionFPR [NumRegions]uint64
	// Checkpoints are the stage-boundary snapshots CaptureGoldenStaged
	// recorded, in execution order; empty for plain captures.
	Checkpoints []Checkpoint
	// Schema is the checkpoint schema version the capture used (see
	// CheckpointSchema). Campaigns only skip prefixes when it matches
	// the current schema, so a golden run serialized or cached across a
	// boundary-layout change degrades to full execution, never to a
	// wrong resume.
	Schema int
}

// Taps returns the injection-site space size for a class/region pair.
func (g *GoldenRun) Taps(c Class, r Region) uint64 {
	if r == RAny {
		if c == GPR {
			return g.GPRTaps
		}
		return g.FPRTaps
	}
	if r >= NumRegions {
		return 0
	}
	if c == GPR {
		return g.RegionGPR[r]
	}
	return g.RegionFPR[r]
}

// CaptureGolden executes one fault-free run of app and returns the
// reusable golden state. The machine's full tap geometry is recorded so
// the result can seed campaigns of any class or region. The result
// carries no checkpoints — use CaptureGoldenStaged when the app has a
// staged view and campaigns should skip fault-free trial prefixes.
func CaptureGolden(app App) (*GoldenRun, error) {
	m := New()
	out, err := app(m)
	if err != nil {
		return nil, fmt.Errorf("fault: golden run failed: %w", err)
	}
	return newGoldenRun(out, m), nil
}

// newGoldenRun records the completed golden machine's tap geometry.
func newGoldenRun(out []byte, m *Machine) *GoldenRun {
	g := &GoldenRun{
		Output:  out,
		Steps:   m.Steps(),
		GPRTaps: m.GPRTaps(),
		FPRTaps: m.FPRTaps(),
	}
	for r := Region(0); r < NumRegions; r++ {
		g.RegionGPR[r] = m.RegionTaps(GPR, r)
		g.RegionFPR[r] = m.RegionTaps(FPR, r)
	}
	return g
}

// TrialRecord is the compact, serializable summary of one completed
// trial — everything a checkpoint needs to avoid rerunning it.
type TrialRecord struct {
	Index   int       `json:"i"`
	Outcome Outcome   `json:"o"`
	Crash   CrashKind `json:"c,omitempty"`
	Landed  bool      `json:"l,omitempty"`
}

// DedupRecords returns a copy of recs ordered by plan index, keeping
// the first record of any index that occurs more than once. Journal
// replay folds checkpoints through it: a compaction racing an append
// can record a trial twice, and resume rejects duplicate indices.
func DedupRecords(recs []TrialRecord) []TrialRecord {
	if len(recs) == 0 {
		return nil
	}
	out := slices.Clone(recs)
	slices.SortStableFunc(out, func(a, b TrialRecord) int { return cmp.Compare(a.Index, b.Index) })
	return slices.CompactFunc(out, func(a, b TrialRecord) bool { return a.Index == b.Index })
}

// Trial records one injection experiment.
type Trial struct {
	Plan    Plan
	Outcome Outcome
	Crash   CrashKind
	// Landed reports whether the flip hit a live value (false means
	// the fault was masked by register deadness/rewrite).
	Landed bool
	// Output holds the corrupted output for SDC trials when
	// Config.KeepSDCOutputs is set.
	Output []byte
	// Err records the crash error for CrashAbort/CrashSegv trials.
	Err error
}

// Record returns the trial's checkpoint record for position index.
func (t *Trial) Record(index int) TrialRecord {
	return TrialRecord{Index: index, Outcome: t.Outcome, Crash: t.Crash, Landed: t.Landed}
}

// SchedStats reports how the campaign executor organized its trials.
// The numbers are purely observational — scheduling never changes a
// campaign observable — and deterministic in the Config (never in
// worker timing): the bucket decomposition depends only on the plan
// space and the golden checkpoint stream, and the cutoff counts only
// on the per-plan execution.
type SchedStats struct {
	// Buckets is the number of distinct checkpoint buckets scheduled;
	// Batched is the number of trials they covered. Trials whose site
	// precedes the first boundary (or campaigns without batching) run
	// unbatched and appear in neither.
	Buckets int
	Batched int
	// RestoresSaved is the checkpoint restores amortized away by
	// batching: Batched trials shared Buckets restored views instead
	// of restoring one each.
	RestoresSaved int
	// BucketSizes is the trials-per-bucket histogram, in checkpoint
	// (execution) order.
	BucketSizes []int
	// EarlyMasks counts trials abandoned at liveness-window expiry
	// (the flip conclusively missed, so the suffix is the golden run);
	// Converged counts trials abandoned at a later stage boundary
	// whose counters and state had re-joined the golden run bit-exactly.
	// Both classify as Mask, exactly as running the suffix would.
	EarlyMasks int
	Converged  int
}

// merge folds another run's scheduler stats into s (shard merges).
func (s *SchedStats) merge(o SchedStats) {
	s.Buckets += o.Buckets
	s.Batched += o.Batched
	s.RestoresSaved += o.RestoresSaved
	s.BucketSizes = append(s.BucketSizes, o.BucketSizes...)
	s.EarlyMasks += o.EarlyMasks
	s.Converged += o.Converged
}

// MergeSched accumulates another result's scheduler statistics; the
// campaign engine's shard merge calls this alongside Accumulate.
func (r *Result) MergeSched(o *Result) { r.Sched.merge(o.Sched) }

// Result aggregates a campaign.
type Result struct {
	Config Config
	// GoldenOutput is the fault-free output the SDC check compares
	// against.
	GoldenOutput []byte
	// GoldenSteps is the golden run's dynamic step count.
	GoldenSteps uint64
	// TotalTaps is the size of the injection site space.
	TotalTaps uint64
	// Counts holds the number of trials per outcome.
	Counts [NumOutcomes]int
	// CrashCounts subdivides OutcomeCrash by kind.
	CrashCounts map[CrashKind]int
	// RegHist and BitHist are the Fig 9b coverage histograms.
	RegHist *stats.Histogram
	BitHist *stats.Histogram
	// Curve tracks outcome rates vs injection count (Fig 9a).
	Curve *stats.RateCurve
	// Trials holds every trial of this run's plan window in plan order
	// (the whole campaign unless Config selects a shard window, in
	// which case entry i is plan PlanOffset+i). When the campaign was
	// interrupted, entries for never-executed plans are zero-valued;
	// Completed says how many entries are real.
	Trials []Trial
	// Completed is the number of trials actually executed or resumed
	// from a checkpoint; it equals Config.Trials unless the campaign
	// was interrupted.
	Completed int
	// Sched reports how the executor scheduled this run's trials
	// (bucket decomposition, restores amortized, suffix cutoffs).
	Sched SchedStats
}

// Rate returns the fraction of trials with the given outcome.
func (r *Result) Rate(o Outcome) float64 {
	total := 0
	for _, c := range r.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(total)
}

// Rates returns the Mask, Crash, SDC and Hang rates in outcome order.
func (r *Result) Rates() [NumOutcomes]float64 {
	var out [NumOutcomes]float64
	total := 0
	for _, c := range r.Counts {
		total += c
	}
	if total == 0 {
		return out
	}
	for o, c := range r.Counts {
		out[o] = float64(c) / float64(total)
	}
	return out
}

// SDCOutputs returns the retained corrupted outputs of SDC trials.
func (r *Result) SDCOutputs() [][]byte {
	var outs [][]byte
	for _, t := range r.Trials {
		if t.Outcome == OutcomeSDC && t.Output != nil {
			outs = append(outs, t.Output)
		}
	}
	return outs
}

// ErrNoTaps is returned when the golden run exposes no injection sites
// for the requested class/region.
var ErrNoTaps = errors.New("fault: golden run executed no taps for the requested class/region")

// NewResult returns an empty Result for cfg with the aggregate
// structures sized and the golden reference recorded; callers fold
// completed trials in with Accumulate, in plan-index order.
// RunCampaign builds its Result through this path, and the campaign
// engine's shard merge uses the same path — which is what makes a
// merged shard set bit-identical to the unsharded run.
func NewResult(cfg Config, goldenOut []byte, goldenSteps, totalTaps uint64) *Result {
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = cfg.Trials / 20
		if every == 0 {
			every = 1
		}
	}
	return &Result{
		Config:       cfg,
		GoldenOutput: goldenOut,
		GoldenSteps:  goldenSteps,
		TotalTaps:    totalTaps,
		CrashCounts:  make(map[CrashKind]int),
		RegHist:      stats.NewHistogram(NumRegisters),
		BitHist:      stats.NewHistogram(RegisterBits),
		Curve:        stats.NewRateCurve(int(NumOutcomes), every),
	}
}

// Accumulate folds one completed trial into the outcome counts, crash
// split, coverage histograms and rate curve. Trials must be
// accumulated in plan-index order for the curve checkpoints to be
// deterministic. Accumulate does not append to r.Trials — the caller
// owns that slice.
func (r *Result) Accumulate(t *Trial) {
	r.Completed++
	r.Counts[t.Outcome]++
	if t.Outcome == OutcomeCrash {
		r.CrashCounts[t.Crash]++
	}
	r.RegHist.Add(t.Plan.Reg)
	r.BitHist.Add(t.Plan.Bit)
	r.Curve.Add(int(t.Outcome))
}

// WindowFor resolves a liveness-window override against the class
// default: window if non-zero, else DefaultGPRWindow/DefaultFPRWindow.
func WindowFor(class Class, window uint64) uint64 {
	if window != 0 {
		return window
	}
	if class == GPR {
		return DefaultGPRWindow
	}
	return DefaultFPRWindow
}

// GeneratePlans draws the first n plans of the campaign plan space for
// (seed, class, region) over a site space of totalTaps, with every
// plan carrying the given (already resolved, see WindowFor) liveness
// window. This is THE plan stream: RunCampaign, the shard
// decomposition and the static planner all draw from it, which is what
// keeps a shard's plans identical to the unsharded campaign's and the
// planner seam bit-identical to the pre-seam executor.
func GeneratePlans(seed uint64, class Class, region Region, window uint64, n int, totalTaps uint64) []Plan {
	rng := stats.NewRNG(seed)
	plans := make([]Plan, n)
	for i := range plans {
		plans[i] = Plan{
			Class:  class,
			Reg:    rng.Intn(NumRegisters),
			Bit:    rng.Intn(RegisterBits),
			Site:   rng.Uint64() % totalTaps,
			Window: window,
			Region: region,
		}
	}
	return plans
}

// RunCampaign executes a statistical fault-injection campaign against
// app: one golden run to size the site space and capture the reference
// output (skipped when cfg.Golden supplies a precomputed one), then
// cfg.Trials injected runs on a bounded worker pool. Trials are
// deterministic in cfg.Seed regardless of worker count. A trial no
// longer necessarily executes the application end to end: with a
// staged app and a checkpointed golden run, each trial restores the
// latest golden stage boundary before its injection site and executes
// only the remaining stages — bit-identical to a full run, because the
// skipped prefix is provably fault-free for that trial's plan.
//
// RunCampaign is the one-shot wrapper around a Session: it opens a
// persistent executor session, runs the single plan window through it
// and closes it. Callers executing many windows of one campaign (the
// planner round loop, fabric round-shard leases) hold a Session open
// instead and pay the pool/preparation setup once.
//
// If ctx is canceled mid-campaign, RunCampaign stops feeding new
// trials, waits for in-flight ones, and returns the partial Result
// (Completed < Config.Trials) together with a non-nil error wrapping
// ctx's error — callers that want partial data on interruption must
// check the Result even when err != nil.
func RunCampaign(ctx context.Context, cfg Config, app App) (*Result, error) {
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
	golden := cfg.Golden
	if golden == nil {
		var err error
		if cfg.Staged != nil {
			golden, err = CaptureGoldenStaged(cfg.Staged)
		} else {
			golden, err = CaptureGolden(app)
		}
		if err != nil {
			return nil, err
		}
	}
	s, err := NewSession(SessionConfig{App: app, Staged: cfg.Staged, Golden: golden, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// The session validates cfg.Golden against its own golden; a nil
	// cfg.Golden (we captured above) is accepted and the captured run is
	// used, so Result.Config stays exactly the caller's cfg.
	return s.Run(ctx, cfg)
}

// maxBucketChunk caps how many trials one channel send hands a worker,
// keeping cancellation responsive even when one bucket dominates the
// campaign (the composite bucket typically holds over a third of all
// plans).
const maxBucketChunk = 16

// schedBucket is one checkpoint bucket of the batched schedule: the
// shared golden boundary plus the once-per-bucket prepared view.
type schedBucket struct {
	cp       *Checkpoint
	cpIdx    int
	prepOnce sync.Once
	prep     any
}

// trialBatch is one unit of worker work: a chunk of plan indices
// sharing a resume checkpoint (bucket == nil for unbatched trials,
// which resolve their checkpoint individually).
type trialBatch struct {
	bucket *schedBucket
	idxs   []int
}

// trialExec carries the per-campaign invariants of trial execution so
// workers share one copy; the atomic counters fold into SchedStats
// after the pool drains.
type trialExec struct {
	budget    uint64
	goldenOut []byte
	keepSDC   bool
	app       App
	staged    StagedApp
	bapp      BatchStagedApp // non-nil only when bucket batching is live
	golden    *GoldenRun
	earlyMask bool

	earlyMasks atomic.Int64
	converged  atomic.Int64
}

// run executes one injection and classifies it, recovering panics the
// way AFI's Fault Monitor catches signals. keepSDC retains the
// corrupted output bytes of SDC trials for the caller to stream or
// store.
//
// When cp is non-nil the trial does not execute the whole application:
// the machine's tap counters are fast-forwarded to the checkpoint's
// and the staged app executes only the stages past the boundary. The
// skipped prefix lies strictly before the plan's site in every
// counter the plan reads, so it could neither fire, resolve, hang nor
// crash there — its effects are exactly the golden snapshot the trial
// restores, and the classification below is unchanged.
//
// Two suffix cutoffs ride on the batching gate, both classifying
// without finishing the run:
//
//   - Early mask: when the plan's window expires without an injection,
//     every tap it observed was an identity pass-through, so the whole
//     run is the golden run. The window also closes at the golden run's
//     last tap in the plan's class/region scope (Machine.ClipWindow):
//     past it no site is left for the flip to land on. The machine
//     raises maskResolved and the trial is classified Mask with
//     Landed=false — exactly what running to completion would record.
//   - Boundary convergence: once the plan is resolved (fired or
//     expired), if a later stage boundary is reached with tap counters
//     equal to the golden checkpoint's and bit-equal state, the
//     remaining suffix is deterministically the golden suffix. The
//     guard fires, the app abandons the run, and the trial is
//     classified Mask with Landed=m.Injected() — again identical to a
//     full run (a landed injection whose effects died before the
//     boundary is a Mask either way).
func (e *trialExec) run(plan Plan, cp *Checkpoint, cpIdx int, prep any) (trial Trial) {
	trial.Plan = plan
	m := NewWithPlan(plan, e.budget)
	if e.earlyMask {
		m.EnableEarlyMask()
		m.ClipWindow(e.golden.Taps(plan.Class, plan.Region))
	}
	defer func() {
		trial.Landed = m.Injected()
		if r := recover(); r != nil {
			if _, ok := r.(maskResolved); ok {
				trial.Outcome = OutcomeMask
				e.earlyMasks.Add(1)
				return
			}
			if h, ok := r.(hangError); ok {
				trial.Outcome = OutcomeHang
				trial.Err = h
				return
			}
			trial.Outcome = OutcomeCrash
			// Go runtime errors (slice bounds, nil dereference) are the
			// analogue of release-build segmentation faults; explicit
			// panics raised by application/library validation are the
			// analogue of assertion aborts (the paper's 92%/8% split,
			// §VI-A).
			if _, isRuntime := r.(runtime.Error); isRuntime {
				trial.Crash = CrashSegv
			} else {
				trial.Crash = CrashAbort
			}
			trial.Err = fmt.Errorf("fault: recovered panic: %v", r)
		}
	}()
	var out []byte
	var err error
	switch {
	case cp != nil && e.bapp != nil:
		m.SeedCounters(cp.Counters)
		// cursor walks the golden checkpoint stream in lockstep with the
		// boundaries the resumed suffix crosses; a name mismatch means
		// the injection perturbed control flow enough to change the
		// boundary sequence, after which realignment is impossible and
		// the guard disables itself for the rest of the trial.
		cursor := cpIdx + 1
		guard := func(name string, state any) bool {
			if !m.Resolved() || cursor >= len(e.golden.Checkpoints) {
				return false
			}
			gcp := &e.golden.Checkpoints[cursor]
			if gcp.Name != name {
				cursor = len(e.golden.Checkpoints)
				return false
			}
			cursor++
			return m.Counters() == gcp.Counters && e.bapp.StateEqual(gcp.State, state)
		}
		var conv bool
		out, conv, err = e.bapp.ResumeGuarded(m, cp.State, prep, guard)
		if conv && err == nil {
			trial.Outcome = OutcomeMask
			e.converged.Add(1)
			return trial
		}
	case cp != nil:
		m.SeedCounters(cp.Counters)
		out, err = e.staged.Resume(m, cp.State)
	default:
		out, err = e.app(m)
	}
	if err != nil {
		trial.Outcome = OutcomeCrash
		trial.Crash = CrashAbort
		trial.Err = err
		return trial
	}
	if bytes.Equal(out, e.goldenOut) {
		trial.Outcome = OutcomeMask
		return trial
	}
	trial.Outcome = OutcomeSDC
	if e.keepSDC {
		trial.Output = out
	}
	return trial
}
