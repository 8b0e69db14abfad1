// Package fault reproduces the paper's Application Fault Injection
// (AFI) tool: single-bit flips in the architectural register file
// (GPRs and FPRs) at a uniformly random point of the application's
// execution, with outcomes classified as Mask, SDC, Crash or Hang
// (§V-A, §V-B).
//
// # Fault model
//
// The original AFI perturbs an unmodified binary's register state from
// outside the process. A pure-Go reproduction cannot reach machine
// registers, so the pipeline is instrumented with *taps*: every
// architecturally meaningful value crossing (array indices, loop
// bounds, packed pixel bytes, descriptor words, floating-point
// intermediates) flows through a Machine. Each tap advances a
// dynamic-instruction counter — the analogue of the execution cycle at
// which AFI fires.
//
// A Plan picks a register class (GPR/FPR), a register id in [0,32), a
// bit in [0,64) and a cycle (tap index). Because a bit flipped in a
// physical register only matters if the register holds a live value
// that is subsequently read, the machine models liveness with a
// *window*: the flip lands at the planned cycle and corrupts the first
// tapped value within the next Window taps whose attributed register
// (a deterministic hash of the tap index) matches the planned
// register. If no such tap occurs inside the window, the flipped
// register was dead or is rewritten first and the fault is masked —
// exactly the dominant masking mechanism the paper reports. GPR values
// have long lifetimes (large window); FPR values in this workload are
// transient conversions (§VI-A), giving them a small window and hence
// the paper's >99% FPR masking.
//
// Values narrower than the 64-bit register (e.g. 8-bit pixels) are
// truncated on write-back by the caller, so flips in high bits of
// packed data are architecturally masked, again matching hardware.
//
// Outcome detection mirrors AFI's Fault Monitor: a recovered runtime
// panic is a Crash (segmentation-fault analogue), an application error
// return is a Crash (abort analogue), exceeding a step budget is a
// Hang, a byte-identical output is a Mask and anything else is an SDC.
package fault

import (
	"fmt"
	"math"

	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// Class selects the register file under test.
type Class uint8

// Register classes, matching the paper's separate GPR and FPR
// campaigns.
const (
	GPR Class = iota
	FPR
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case GPR:
		return "GPR"
	case FPR:
		return "FPR"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Region identifies the function-level scope a tap executes in. The
// type (and its constants below) now lives in package probe — the
// instrumentation seam shared by every sink — and is aliased here so
// campaign code and plans keep reading naturally as fault.Region.
type Region = probe.Region

// Regions of the video summarization application, re-exported from
// package probe. RWarpInvoker and RRemapBilinear are the paper's two
// hot functions (WarpPerspective's callees).
const (
	RApp           = probe.RApp
	RFASTDetect    = probe.RFASTDetect
	RORBDescribe   = probe.RORBDescribe
	RMatch         = probe.RMatch
	RRANSAC        = probe.RRANSAC
	RWarpInvoker   = probe.RWarpInvoker
	RRemapBilinear = probe.RRemapBilinear
	RBlend         = probe.RBlend
	RDecode        = probe.RDecode
	NumRegions     = probe.NumRegions

	// RAny is used in plans to mean "no region restriction".
	RAny = probe.RAny
)

// OpClass categorizes accounted operations for the performance/energy
// model (package energy); aliased from package probe.
type OpClass = probe.OpClass

// Operation classes, re-exported from package probe.
const (
	OpInt        = probe.OpInt
	OpFloat      = probe.OpFloat
	OpLoad       = probe.OpLoad
	OpStore      = probe.OpStore
	OpBranch     = probe.OpBranch
	NumOpClasses = probe.NumOpClasses
)

// NumRegisters is the architectural register file size per class (the
// paper's POWER machine has 32 GPRs and 32 FPRs; Fig 9b histograms
// injections over 32 GPRs).
const NumRegisters = 32

// RegisterBits is the width of each architectural register.
const RegisterBits = 64

// Plan describes a single fault-injection experiment.
type Plan struct {
	Class  Class
	Reg    int    // register id in [0, NumRegisters)
	Bit    int    // bit position in [0, RegisterBits)
	Site   uint64 // dynamic tap index (the "cycle") within Class (and Region if set)
	Window uint64 // liveness window in taps; 0 means never hits (always masked)
	Region Region // RAny for whole-program injection
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	return fmt.Sprintf("%s r%d bit%d site%d win%d region=%s",
		p.Class, p.Reg, p.Bit, p.Site, p.Window, p.Region)
}

// hangError is the sentinel panic value raised when the step budget is
// exhausted; the trial runner maps it to OutcomeHang.
type hangError struct{ steps uint64 }

func (h hangError) Error() string {
	return fmt.Sprintf("fault: step budget exhausted after %d steps", h.steps)
}

// maskResolved is the sentinel panic value raised by the early-mask
// cutoff: the plan's liveness window — which ends at min(Site+Window,
// the golden run's in-scope tap count) once ClipWindow has supplied
// the latter — closed without the flip landing on a live value, so
// every tap so far returned its input unchanged and the rest of the
// run is provably the golden run. The trial runner maps it to
// OutcomeMask with Landed=false — exactly what running the suffix to
// completion would classify.
type maskResolved struct{}

// Machine carries fault-injection state and operation accounting
// through one run of the application — end to end for golden captures,
// or from a restored stage boundary onward for campaign trials that
// skip their fault-free prefix (the counters are then fast-forwarded
// with SeedCounters so the suffix taps index identically). It is the
// injecting implementation of probe.Sink — the stage packages accept
// any Sink, and campaigns thread a Machine through that seam. Kernels
// run it on the same instrumented instantiation as any other tapping
// sink, calling its taps through the interface; the one thing they do
// for a Machine alone is the inert-unit skip (InertUnits, AdvanceTaps,
// OpsIn), which runs units that cannot reach the armed site tap-free.
// Tap methods remain nil-safe for legacy call sites, but uninstrumented
// runs should use probe.Nop{} (the tap-free instantiation) rather than
// a nil *Machine.
//
// Machine is not safe for concurrent use; every trial gets its own.
type Machine struct {
	plan *Plan

	region Region

	gprCount uint64 // dynamic GPR-class taps so far
	fprCount uint64 // dynamic FPR-class taps so far

	// Region-scoped tap counters, used when the plan restricts the
	// injection to a function (Fig 11b).
	regionGPR [NumRegions]uint64
	regionFPR [NumRegions]uint64

	steps uint64
	// stepLimit is the hang threshold in taps: one compare per step,
	// with ^uint64(0) standing in for "unlimited" so golden runs pay no
	// extra branch.
	stepLimit uint64

	// armedGPR/armedFPR say a still-unresolved plan targets that class.
	// At most one is ever set; both are false on golden machines and
	// after the plan fires or conclusively misses, which keeps the tap
	// fast path to a single bool test instead of a plan dereference.
	armedGPR bool
	armedFPR bool
	injected bool // a bit was actually flipped

	// earlyMask makes a window expiry without injection abandon the
	// run via the maskResolved sentinel instead of executing the
	// (provably golden) suffix. Only campaign trial machines enable it;
	// see EnableEarlyMask.
	earlyMask bool

	// scopeTaps is the golden run's tap count in the plan's class and
	// region scope (0 = unknown); see ClipWindow.
	scopeTaps uint64

	ops [NumRegions][NumOpClasses]uint64

	// regionStack holds the regions saved by Enter; restoreFn pops it.
	// Sharing one preallocated restore function across all Enter calls
	// keeps Enter allocation-free even when called through the generic
	// kernels, where a per-call closure could not be stack-allocated.
	regionStack []Region
	restoreFn   func()
}

// Machine is the injecting probe.Sink.
var _ probe.Sink = (*Machine)(nil)

// Machine's op accounting drives the energy/profilesim models.
var _ probe.Counters = (*Machine)(nil)

// New returns a counting machine with no fault plan (a golden run).
func New() *Machine {
	m := &Machine{region: RApp, stepLimit: ^uint64(0), regionStack: make([]Region, 0, 8)}
	m.restoreFn = m.restoreRegion
	return m
}

// NewWithPlan returns a machine that will execute the given plan.
// stepBudget bounds total taps before the run is declared hung; use 0
// for unlimited (golden runs).
func NewWithPlan(p Plan, stepBudget uint64) *Machine {
	m := &Machine{plan: &p, stepLimit: stepBudget, region: RApp, regionStack: make([]Region, 0, 8)}
	if stepBudget == 0 {
		m.stepLimit = ^uint64(0)
	}
	m.armedGPR = p.Class == GPR
	m.armedFPR = p.Class == FPR
	m.restoreFn = m.restoreRegion
	return m
}

// restoreRegion pops the region saved by the matching Enter. Enter and
// its restore pair LIFO (callers defer the restore), so a shared pop
// is equivalent to per-call capture.
func (m *Machine) restoreRegion() {
	if n := len(m.regionStack); n > 0 {
		m.region = m.regionStack[n-1]
		m.regionStack = m.regionStack[:n-1]
	}
}

// Injected reports whether the plan's bit flip actually landed on a
// live value during the run.
func (m *Machine) Injected() bool {
	if m == nil {
		return false
	}
	return m.injected
}

// Resolved reports that no armed plan remains: the flip either landed
// (Injected) or its liveness window conclusively expired. Golden
// machines (no plan) are resolved from the start. From a resolved
// machine's point of view every future tap returns its input
// unchanged, which is what licenses the inert kernel fast path.
func (m *Machine) Resolved() bool {
	if m == nil {
		return true
	}
	return !m.armedGPR && !m.armedFPR
}

// EnableEarlyMask arms the resolved-plan cutoff: if the plan's window
// closes without the flip landing — at Site+Window, or earlier at the
// golden run's last in-scope tap when ClipWindow supplied it — the
// machine abandons the run (via an internal sentinel panic the campaign
// runner classifies) instead of executing the suffix. The cutoff is
// sound exactly because a never-landed plan leaves every tapped value
// untouched: the run's dataflow is the golden run's, its output would
// compare equal, and the hang budget (a multiple of golden steps)
// cannot expire on the golden path. Every campaign trial machine
// enables it; machines whose ops/taps are read to completion (golden
// captures, meters) must not.
func (m *Machine) EnableEarlyMask() {
	if m != nil {
		m.earlyMask = true
	}
}

// ClipWindow ends the plan's liveness window at the golden run's tap
// count in the plan's class/region scope (GoldenRun.Taps). Until the
// flip lands the run is the golden run, so once its last in-scope tap
// passes without a register match no in-scope tap remains and the plan
// can never fire: the machine disarms right there (raising the early
// mask when enabled) instead of staying armed through a suffix it can
// no longer affect. The window then ends at min(Site+Window,
// scopeTaps). A zero scopeTaps leaves the window unclipped.
func (m *Machine) ClipWindow(scopeTaps uint64) {
	if m != nil {
		m.scopeTaps = scopeTaps
	}
}

// expire disarms a plan whose window closed without a live use (the
// register was dead or rewritten first) and, under EnableEarlyMask,
// abandons the now provably golden run.
func (m *Machine) expire() {
	m.armedGPR, m.armedFPR = false, false
	if m.earlyMask {
		panic(maskResolved{})
	}
}

// CanSkipTaps reports whether a kernel about to execute at most span
// taps may run tap-free: no armed plan site is reachable within the
// span (so no tap could fire, arm-check or disarm) and the hang budget
// cannot expire inside it. It is InertUnits for one unit. span's class
// and region counters must be upper bounds on the kernel's tap
// footprint; Steps must bound the total. Callers that take the skip
// must afterwards bulk-advance the counters by the kernel's exact
// footprint with AdvanceTaps, so that every later tap indexes the site
// space exactly as if the kernel had executed its instrumented loop.
func (m *Machine) CanSkipTaps(span TapCounters) bool {
	return m.InertUnits(span, 1) == 1
}

// InertUnits returns how many of the next n units of a kernel — rows,
// key points, queries, each issuing at most unit taps — may run
// tap-free, by the same argument as CanSkipTaps applied to k·unit: no
// armed site is reachable within the first k units and the hang budget
// cannot expire inside them. The count is arithmetic, not a scan: the
// distance to the armed site divided by the unit's need in the plan's
// class and scope, and the step headroom divided by unit.Steps. A
// kernel runs that many units on its clean mirror, advances the
// counters by their exact footprint (AdvanceTaps, OpsIn), runs the
// next unit instrumented and asks again. A nil machine returns n.
func (m *Machine) InertUnits(unit TapCounters, n int) int {
	if m == nil || n <= 0 {
		return max(n, 0)
	}
	if m.steps > m.stepLimit {
		return 0
	}
	k := fitUnits(uint64(n), m.stepLimit-m.steps, unit.Steps)
	if m.armedGPR {
		p := m.plan
		scoped, need := m.gprCount, unit.GPR
		if p.Region != RAny {
			scoped, need = m.regionGPR[p.Region], unit.RegionGPR[p.Region]
		}
		// The in-scope tap indices of k units are scoped..scoped+k·need-1;
		// they stay strictly below the site iff scoped+k·need <= Site.
		// (An open window, scoped > Site, admits no unit: every in-scope
		// tap from the site on must run instrumented so it can fire, or
		// disarm at the window end or at the golden run's last in-scope
		// tap.)
		if scoped > p.Site {
			return 0
		}
		k = fitUnits(k, p.Site-scoped, need)
	}
	if m.armedFPR {
		p := m.plan
		scoped, need := m.fprCount, unit.FPR
		if p.Region != RAny {
			scoped, need = m.regionFPR[p.Region], unit.RegionFPR[p.Region]
		}
		if scoped > p.Site {
			return 0
		}
		k = fitUnits(k, p.Site-scoped, need)
	}
	return int(k)
}

// fitUnits caps k at the number of units of need taps that fit in
// room taps; a unit that needs none always fits.
func fitUnits(k, room, need uint64) uint64 {
	if need > 0 && room/need < k {
		return room / need
	}
	return k
}

// AdvanceTaps bulk-advances the machine's tap counters by span — the
// exact footprint of a kernel that ran tap-free after CanSkipTaps.
// Register attribution hashes whole-program class counters and plan
// sites index scoped counters, so advancing all families exactly keeps
// every subsequent tap bit-identical to the instrumented execution.
func (m *Machine) AdvanceTaps(span TapCounters) {
	if m == nil {
		return
	}
	m.steps += span.Steps
	m.gprCount += span.GPR
	m.fprCount += span.FPR
	for r := range m.regionGPR {
		m.regionGPR[r] += span.RegionGPR[r]
		m.regionFPR[r] += span.RegionFPR[r]
	}
}

// OpsIn records n operations of class c in region r regardless of the
// current region — the bulk-accounting entry for inert kernels, whose
// instrumented loops would have attributed per-tap ops to the regions
// they swap through.
func (m *Machine) OpsIn(r Region, c OpClass, n uint64) {
	if m == nil || r >= NumRegions || c >= NumOpClasses {
		return
	}
	m.ops[r][c] += n
}

// GPRTaps returns the number of GPR-class taps executed.
func (m *Machine) GPRTaps() uint64 {
	if m == nil {
		return 0
	}
	return m.gprCount
}

// FPRTaps returns the number of FPR-class taps executed.
func (m *Machine) FPRTaps() uint64 {
	if m == nil {
		return 0
	}
	return m.fprCount
}

// RegionTaps returns the number of taps of class c executed inside
// region r.
func (m *Machine) RegionTaps(c Class, r Region) uint64 {
	if m == nil || r >= NumRegions {
		return 0
	}
	if c == GPR {
		return m.regionGPR[r]
	}
	return m.regionFPR[r]
}

// Steps returns the dynamic step count (total taps).
func (m *Machine) Steps() uint64 {
	if m == nil {
		return 0
	}
	return m.steps
}

// OpCount returns the accounted operations of the given class within
// region r.
func (m *Machine) OpCount(r Region, c OpClass) uint64 {
	if m == nil || r >= NumRegions || c >= NumOpClasses {
		return 0
	}
	return m.ops[r][c]
}

// TotalOps returns the accounted operations of class c across all
// regions.
func (m *Machine) TotalOps(c OpClass) uint64 {
	if m == nil {
		return 0
	}
	var t uint64
	for r := Region(0); r < NumRegions; r++ {
		t += m.ops[r][c]
	}
	return t
}

// Enter switches the current region and returns a restore function;
// use as: defer m.Enter(fault.RMatch)().
func (m *Machine) Enter(r Region) func() {
	if m == nil {
		return func() {}
	}
	m.regionStack = append(m.regionStack, m.region)
	if r < NumRegions {
		m.region = r
	}
	return m.restoreFn
}

// Swap switches the current region and returns the previous one. It
// is the allocation-free alternative to Enter for per-pixel hot paths:
//
//	prev := m.Swap(fault.RRemapBilinear)
//	...
//	m.Swap(prev)
func (m *Machine) Swap(r Region) Region {
	if m == nil {
		return RApp
	}
	prev := m.region
	if r < NumRegions {
		m.region = r
	}
	return prev
}

// CurrentRegion returns the active accounting region.
func (m *Machine) CurrentRegion() Region {
	if m == nil {
		return RApp
	}
	return m.region
}

// Ops records n operations of class c in the current region. Kernels
// call this with bulk counts (e.g. once per scanline) so accounting
// overhead stays negligible.
func (m *Machine) Ops(c OpClass, n uint64) {
	if m == nil || c >= NumOpClasses {
		return
	}
	m.ops[m.region][c] += n
}

func (m *Machine) bumpStep() {
	m.steps++
	if m.steps > m.stepLimit {
		panic(hangError{steps: m.steps})
	}
}

// tapGPR is the common GPR-class tap. It returns v with the planned
// bit flipped if this tap is the injection target.
func (m *Machine) tapGPR(v uint64) uint64 {
	idx := m.gprCount
	m.gprCount++
	m.regionGPR[m.region]++
	m.ops[m.region][OpInt]++
	m.bumpStep()
	if !m.armedGPR {
		return v
	}
	p := m.plan
	site := idx
	if p.Region != RAny {
		if p.Region != m.region {
			return v
		}
		site = m.regionGPR[m.region] - 1
	}
	if site < p.Site {
		return v
	}
	if site >= p.Site+p.Window {
		m.expire() // register rewritten or dead: fault masked
		return v
	}
	if int(stats.Hash64(idx)%NumRegisters) != p.Reg {
		if site+1 == m.scopeTaps {
			m.expire() // the golden run's last in-scope tap: no site left
		}
		return v
	}
	m.armedGPR = false
	m.injected = true
	return v ^ (1 << uint(p.Bit))
}

// tapFPR is the common FPR-class tap on the raw IEEE-754 bits.
func (m *Machine) tapFPR(bits uint64) uint64 {
	idx := m.fprCount
	m.fprCount++
	m.regionFPR[m.region]++
	m.ops[m.region][OpFloat]++
	m.bumpStep()
	if !m.armedFPR {
		return bits
	}
	p := m.plan
	site := idx
	if p.Region != RAny {
		if p.Region != m.region {
			return bits
		}
		site = m.regionFPR[m.region] - 1
	}
	if site < p.Site {
		return bits
	}
	if site >= p.Site+p.Window {
		m.expire()
		return bits
	}
	if int(stats.Hash64(idx^0xF0F0)%NumRegisters) != p.Reg {
		if site+1 == m.scopeTaps {
			m.expire()
		}
		return bits
	}
	m.armedFPR = false
	m.injected = true
	return bits ^ (1 << uint(p.Bit))
}

// Idx taps an address-forming integer (array index, offset, stride).
// Corruption of high bits typically produces out-of-bounds accesses —
// the paper's dominant GPR crash mechanism (92% segmentation faults).
func (m *Machine) Idx(v int) int {
	if m == nil {
		return v
	}
	return int(int64(m.tapGPR(uint64(int64(v)))))
}

// Cnt taps a loop bound or trip count. Corruption can inflate the
// bound, which the step budget eventually classifies as a Hang.
func (m *Machine) Cnt(v int) int {
	if m == nil {
		return v
	}
	return int(int64(m.tapGPR(uint64(int64(v)))))
}

// Pix taps an 8-bit pixel held in a 64-bit register. The write-back
// truncation masks flips in bits 8..63 exactly as a byte store from a
// wide register would.
func (m *Machine) Pix(v uint8) uint8 {
	if m == nil {
		return v
	}
	return uint8(m.tapGPR(uint64(v)))
}

// Word taps a full-width integer datum (descriptor word, accumulator).
func (m *Machine) Word(v uint64) uint64 {
	if m == nil {
		return v
	}
	return m.tapGPR(v)
}

// F64 taps a floating-point intermediate held in an FPR.
func (m *Machine) F64(v float64) float64 {
	if m == nil {
		return v
	}
	return math.Float64frombits(m.tapFPR(math.Float64bits(v)))
}
