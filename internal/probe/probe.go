// Package probe defines the instrumentation plane of the pipeline: the
// narrow Sink seam every stage taps its architecturally meaningful
// values through, plus the sink implementations that do not inject
// faults (Nop for clean serving runs, Meter for live observability).
//
// The paper's AFI methodology (§V-A) works because injection and
// telemetry are a plane layered over an unmodified application. This
// package is that plane's contract: stage packages (vs, stitch,
// features, match, ransac, warp, events, wp) accept any Sink, and the
// three shipped implementations cover the three uses —
//
//   - *fault.Machine injects single-bit register faults and accounts
//     taps/ops for the campaign (it satisfies Sink unchanged);
//   - Nop is the zero-cost path for summarize-only traffic: stages
//     instantiate their generic kernels with Nop so every tap compiles
//     to an identity and op accounting disappears;
//   - Meter records per-region tap counts, op counts and wall-time,
//     feeding the energy/profilesim models and the vsd /metrics
//     per-stage gauges from live runs.
//
// Each kernel has two instantiations: Nop's, and one for the Sink
// interface that every tapping sink shares. A concrete pointer sink
// would gain nothing from a third: the compiler gives every pointer
// type argument the one GC shape and calls its methods through the
// instantiation's dictionary, as indirectly as through the interface.
//
// # Tap-ordering invariant
//
// A Sink implementation must be passive: it may observe and (for the
// fault machine) perturb the tapped value, but it must not change
// which taps execute or their order — the campaign's notion of a
// "cycle" is the dynamic tap index, so the tap stream itself is part
// of the application's architectural behavior. Conversely, stages must
// issue the identical tap sequence for every Sink; optimizations that
// skip taps on one sink but not another would desynchronize the fault
// site space. The equivalence tests at the repo root pin this.
package probe

import "fmt"

// Region identifies the function-level scope a tap executes in. It
// serves two purposes: the Fig 11b case study injects faults only
// inside the hot functions, and the Fig 8 execution profile attributes
// operation counts to functions.
type Region uint8

// Regions of the video summarization application. RWarpInvoker and
// RRemapBilinear are the paper's two hot functions (WarpPerspective's
// callees); the remaining vision kernels model the rest of the OpenCV
// share; RApp covers application-level orchestration.
const (
	RApp Region = iota
	RFASTDetect
	RORBDescribe
	RMatch
	RRANSAC
	RWarpInvoker
	RRemapBilinear
	RBlend
	RDecode
	NumRegions

	// RAny is used in fault plans to mean "no region restriction".
	RAny Region = 255
)

var regionNames = [NumRegions]string{
	"app", "FASTDetect", "ORBDescribe", "match", "RANSAC",
	"WarpPerspectiveInvoker", "remapBilinear", "blend", "decode",
}

// String implements fmt.Stringer.
func (r Region) String() string {
	if r == RAny {
		return "any"
	}
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("Region(%d)", uint8(r))
}

// OpClass categorizes accounted operations for the performance/energy
// model (package energy).
type OpClass uint8

// Operation classes with distinct per-operation cycle costs.
const (
	OpInt OpClass = iota
	OpFloat
	OpLoad
	OpStore
	OpBranch
	NumOpClasses
)

// String implements fmt.Stringer.
func (o OpClass) String() string {
	switch o {
	case OpInt:
		return "int"
	case OpFloat:
		return "float"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	default:
		return fmt.Sprintf("OpClass(%d)", uint8(o))
	}
}

// Sink is the instrumentation seam. Every stage threads one Sink
// through its kernels and feeds it the architecturally meaningful
// value crossings: integer taps (Idx, Cnt, Pix, Word) model values
// held in general-purpose registers, F64 models floating-point
// registers, Ops records bulk operation counts for the performance
// model, and Enter/Swap/CurrentRegion attribute all of it to the
// current function-level Region.
//
// Tap methods return the value (possibly perturbed — that is how the
// fault machine injects); kernels must write the returned value back.
// Implementations may panic from a tap to model bounded execution (the
// fault machine's step budget raises its hang sentinel this way);
// kernels therefore must stay exception-safe via defers, not explicit
// cleanup calls.
type Sink interface {
	// Enter switches the current region and returns a restore
	// function; use as: defer s.Enter(probe.RMatch)().
	Enter(r Region) func()
	// Swap switches the current region and returns the previous one —
	// the allocation-free alternative to Enter for per-pixel paths.
	Swap(r Region) Region
	// CurrentRegion returns the active attribution region.
	CurrentRegion() Region

	// Idx taps an address-forming integer (array index, offset).
	Idx(v int) int
	// Cnt taps a loop bound or trip count.
	Cnt(v int) int
	// Pix taps an 8-bit pixel held in a 64-bit register.
	Pix(v uint8) uint8
	// Word taps a full-width integer datum (descriptor word).
	Word(v uint64) uint64
	// F64 taps a floating-point intermediate held in an FPR.
	F64(v float64) float64

	// Ops records n operations of class c in the current region.
	Ops(c OpClass, n uint64)
}

// Counters is the read side of op accounting shared by the fault
// machine and the Meter: anything that can report per-region operation
// counts can drive the energy and profilesim models, so Fig 5 and
// Fig 8 inputs come equally from campaign runs and live metered runs.
type Counters interface {
	// OpCount returns the accounted operations of class c within
	// region r.
	OpCount(r Region, c OpClass) uint64
}

// TotalOps sums c's operation count over all regions of any Counters.
func TotalOps(cs Counters, c OpClass) uint64 {
	var t uint64
	for r := Region(0); r < NumRegions; r++ {
		t += cs.OpCount(r, c)
	}
	return t
}

// Nop is the uninstrumented sink: every tap is an identity and all
// accounting is dropped. Stage packages special-case it — their public
// entry points instantiate generic kernels with the concrete Nop type,
// so the compiler inlines the methods below into nothing and clean
// runs pay no tap overhead at all (not even the nil checks the old
// nil-*Machine convention cost).
type Nop struct{}

// nopRestore is shared by every Enter call so Nop never allocates.
var nopRestore = func() {}

// Enter implements Sink as a no-op.
func (Nop) Enter(Region) func() { return nopRestore }

// Swap implements Sink as a no-op.
func (Nop) Swap(Region) Region { return RApp }

// CurrentRegion implements Sink; a Nop is always "in" RApp.
func (Nop) CurrentRegion() Region { return RApp }

// Idx implements Sink as the identity.
func (Nop) Idx(v int) int { return v }

// Cnt implements Sink as the identity.
func (Nop) Cnt(v int) int { return v }

// Pix implements Sink as the identity.
func (Nop) Pix(v uint8) uint8 { return v }

// Word implements Sink as the identity.
func (Nop) Word(v uint64) uint64 { return v }

// F64 implements Sink as the identity.
func (Nop) F64(v float64) float64 { return v }

// Ops implements Sink as a no-op.
func (Nop) Ops(OpClass, uint64) {}

var _ Sink = Nop{}

// IsNop reports whether s is the no-op sink (or nil, which stages
// treat the same way). Stage entry points use it to dispatch onto the
// tap-free instantiation of their kernels.
func IsNop(s Sink) bool {
	if s == nil {
		return true
	}
	_, ok := s.(Nop)
	return ok
}

// OrNop normalizes a possibly-nil Sink. Stage entry points call it
// once so kernels never need nil checks; callers should still prefer
// passing Nop{} explicitly.
func OrNop(s Sink) Sink {
	if s == nil {
		return Nop{}
	}
	return s
}
