package fault

import (
	"bytes"
	"cmp"
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

// Config is one plan window of a fault-injection campaign: the plans a
// planner (internal/plan) drew and where they sit in the campaign's
// plan space. Everything else about how they run is fixed for the
// campaign by the Session's SessionConfig.
type Config struct {
	// PlanOffset is the plan index of Plans[0]. TrialRecord indices are
	// plan indices, so journaling and resume do not depend on how a
	// campaign's plan space is cut into windows.
	PlanOffset int
	// Plans are the exact plans this window executes; the window runs
	// len(Plans) trials.
	Plans []Plan
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
	// SessionConfig.KeepSDCOutputs is set.
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
// campaign observable — and deterministic in the window (never in
// worker timing): the bucket decomposition depends only on the plan
// space and the golden checkpoint stream, and the cutoff counts only
// on the per-plan execution.
type SchedStats struct {
	// Buckets is the number of distinct checkpoint buckets scheduled;
	// Batched is the number of trials they covered. Trials whose site
	// precedes the first boundary (or campaigns whose golden has no
	// checkpoints) run in full and appear in neither. Batched-Buckets
	// is the checkpoint restores the buckets amortized away.
	Buckets int
	Batched int
	// BucketSizes is the trials-per-bucket histogram, in checkpoint
	// (execution) order.
	BucketSizes []int
	// EarlyMasks counts trials abandoned at liveness-window expiry
	// (the flip conclusively missed, so the suffix is the golden run);
	// Converged counts trials abandoned at a later stage boundary
	// whose live state had re-joined the golden run bit-exactly.
	// Early masks classify as Mask; converged trials as Mask, or as
	// Hang when the golden suffix would overrun the step budget —
	// exactly as running the suffix would.
	EarlyMasks int
	Converged  int
}

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
	// Trials holds every trial of this run's plan window in plan order:
	// entry i is plan Config.PlanOffset+i. When the window was
	// interrupted, entries for never-executed plans are zero-valued;
	// Completed says how many entries are real.
	Trials []Trial
	// Completed is the number of trials actually executed or resumed
	// from a checkpoint; it equals len(Config.Plans) unless the campaign
	// was interrupted.
	Completed int
	// Resumed is how many of the Completed trials were folded from
	// SessionConfig.Resume records without re-execution.
	Resumed int
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

// newResult returns an empty Result for cfg with the aggregate
// structures sized and the golden reference recorded; Session.Run folds
// completed trials in with accumulate, in plan-index order. The rate
// curve snapshots every window/20 trials (Fig 9a).
func newResult(cfg Config, goldenOut []byte, goldenSteps, totalTaps uint64) *Result {
	every := max(len(cfg.Plans)/20, 1)
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

// accumulate folds one completed trial into the outcome counts, crash
// split, coverage histograms and rate curve. Trials must be
// accumulated in plan-index order for the curve checkpoints to be
// deterministic. accumulate does not append to r.Trials — the caller
// owns that slice.
func (r *Result) accumulate(t *Trial) {
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
// window. This is the uniform plan stream of the paper's campaigns:
// the static planner (plan.Static) emits it, so a fixed-budget
// campaign's trials depend only on its seed.
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

// maxBucketChunk caps how many trials one channel send hands a worker,
// keeping cancellation responsive even when one bucket dominates the
// campaign.
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
// sharing a resume checkpoint (bucket == nil for trials that run in
// full: the golden has no usable checkpoints, or none precedes their
// site).
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
	bapp      BatchStagedApp // staged's batch view; nil when it has none
	golden    *GoldenRun
	// earlyMask arms the early-mask cutoff and the window clip on every
	// trial machine. Campaigns always set it; only the cutoff-free
	// reference executor of the package tests leaves it off.
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
// Two suffix cutoffs classify without finishing the run (the first
// under earlyMask, the second whenever the trial resumes through a
// BatchStagedApp):
//
//   - Early mask: when the plan's window expires without an injection,
//     every tap it observed was an identity pass-through, so the whole
//     run is the golden run. The window also closes at the golden run's
//     last tap in the plan's class/region scope (Machine.ClipWindow):
//     past it no site is left for the flip to land on. The machine
//     raises maskResolved and the trial is classified Mask with
//     Landed=false — exactly what running to completion would record.
//   - Boundary convergence: once the plan is resolved (fired or
//     expired), every tap passes its value through, so from a later
//     stage boundary whose live state — everything the rest of the run
//     reads (BatchStagedApp.StateEqual) — is bit-equal to the golden
//     checkpoint's, the remaining suffix is deterministically the
//     golden suffix, whatever the tap counters say. The guard fires and
//     the app abandons the run. The suffix would have added the golden
//     run's remaining steps, golden.Steps minus the checkpoint's: the
//     trial is a Hang iff the machine's steps plus those exceed the
//     budget, and otherwise a Mask with Landed=m.Injected() — both
//     identical to a full run (a landed injection whose effects died
//     before the boundary is a Mask either way).
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
		// boundaries the resumed suffix crosses. The app reports the
		// resume boundary itself first; no tap has run there, so the
		// plan is unresolved and that call leaves the cursor alone. A
		// name mismatch means the injection perturbed control flow
		// enough to change the boundary sequence, after which
		// realignment is impossible and the guard disables itself for
		// the rest of the trial.
		cursor := cpIdx + 1
		var at *Checkpoint
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
			if !e.bapp.StateEqual(gcp.State, state) {
				return false
			}
			at = gcp
			return true
		}
		var conv bool
		out, conv, err = e.bapp.ResumeGuarded(m, cp.State, prep, guard)
		if conv && err == nil {
			e.converged.Add(1)
			// From equal live state the suffix is the golden suffix: it
			// adds exactly the golden run's remaining steps, so it hangs
			// iff they overrun the budget, and otherwise ends in the
			// golden output.
			if rest := e.golden.Steps - at.Counters.Steps; e.budget != 0 && m.Steps()+rest > e.budget {
				trial.Outcome = OutcomeHang
				trial.Err = hangError{steps: e.budget + 1}
				return trial
			}
			trial.Outcome = OutcomeMask
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
