package fault

import (
	"math"
	"testing"

	"vsresil/internal/stats"
)

func TestNilMachineIsIdentity(t *testing.T) {
	var m *Machine
	if m.Idx(42) != 42 || m.Cnt(7) != 7 || m.Pix(9) != 9 || m.Word(1e6) != 1e6 {
		t.Error("nil machine changed a value")
	}
	if m.F64(3.5) != 3.5 {
		t.Error("nil machine changed a float")
	}
	if m.GPRTaps() != 0 || m.FPRTaps() != 0 || m.Steps() != 0 {
		t.Error("nil machine counted")
	}
	if m.Injected() {
		t.Error("nil machine injected")
	}
	m.Ops(OpInt, 5) // must not panic
	m.Enter(RMatch)()
	if m.CurrentRegion() != RApp {
		t.Error("nil machine region")
	}
	if m.OpCount(RApp, OpInt) != 0 || m.TotalOps(OpInt) != 0 {
		t.Error("nil machine op counts")
	}
	if m.RegionTaps(GPR, RApp) != 0 {
		t.Error("nil machine region taps")
	}
}

func TestGoldenMachineCountsButDoesNotCorrupt(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		if got := m.Idx(i); got != i {
			t.Fatalf("golden machine corrupted %d -> %d", i, got)
		}
		if got := m.F64(float64(i)); got != float64(i) {
			t.Fatalf("golden machine corrupted float %d", i)
		}
	}
	if m.GPRTaps() != 100 || m.FPRTaps() != 100 {
		t.Errorf("taps = %d/%d", m.GPRTaps(), m.FPRTaps())
	}
	if m.Steps() != 200 {
		t.Errorf("steps = %d", m.Steps())
	}
}

// findRegForSite returns the register that Hash64 attributes to the
// given global GPR tap index, so tests can build plans that are
// guaranteed to land.
func findRegForSite(site uint64) int {
	return int(stats.Hash64(site) % NumRegisters)
}

func TestPlanFlipsExactBit(t *testing.T) {
	const site = 5
	p := Plan{Class: GPR, Reg: findRegForSite(site), Bit: 3, Site: site, Window: 1, Region: RAny}
	m := NewWithPlan(p, 0)
	for i := 0; i < 10; i++ {
		got := m.Idx(100)
		if uint64(i) == site {
			if got != 100^(1<<3) {
				t.Errorf("tap %d = %d, want bit 3 flipped (=%d)", i, got, 100^(1<<3))
			}
		} else if got != 100 {
			t.Errorf("tap %d corrupted to %d", i, got)
		}
	}
	if !m.Injected() {
		t.Error("plan did not report injection")
	}
}

func TestPlanWindowMiss(t *testing.T) {
	const site = 5
	// Pick a register that does NOT match any tap in [site, site+window).
	window := uint64(3)
	used := map[int]bool{}
	for s := uint64(site); s < site+window; s++ {
		used[findRegForSite(s)] = true
	}
	reg := -1
	for r := 0; r < NumRegisters; r++ {
		if !used[r] {
			reg = r
			break
		}
	}
	if reg < 0 {
		t.Skip("all registers used in window (vanishingly unlikely)")
	}
	p := Plan{Class: GPR, Reg: reg, Bit: 0, Site: site, Window: window, Region: RAny}
	m := NewWithPlan(p, 0)
	for i := 0; i < 20; i++ {
		if got := m.Idx(7); got != 7 {
			t.Errorf("missed plan corrupted tap %d", i)
		}
	}
	if m.Injected() {
		t.Error("window miss should not inject")
	}
}

func TestPlanInjectsOnlyOnce(t *testing.T) {
	const site = 2
	p := Plan{Class: GPR, Reg: findRegForSite(site), Bit: 0, Site: site, Window: 50, Region: RAny}
	m := NewWithPlan(p, 0)
	corrupted := 0
	for i := 0; i < 100; i++ {
		if m.Idx(0) != 0 {
			corrupted++
		}
	}
	if corrupted != 1 {
		t.Errorf("corrupted %d taps, want exactly 1", corrupted)
	}
}

func TestPixTruncationMasksHighBits(t *testing.T) {
	const site = 0
	p := Plan{Class: GPR, Reg: findRegForSite(site), Bit: 40, Site: site, Window: 1, Region: RAny}
	m := NewWithPlan(p, 0)
	if got := m.Pix(200); got != 200 {
		t.Errorf("high-bit flip leaked into pixel: %d", got)
	}
	if !m.Injected() {
		t.Error("flip should still count as injected (masked architecturally)")
	}
}

func TestPixLowBitFlipVisible(t *testing.T) {
	const site = 0
	p := Plan{Class: GPR, Reg: findRegForSite(site), Bit: 2, Site: site, Window: 1, Region: RAny}
	m := NewWithPlan(p, 0)
	if got := m.Pix(200); got != 200^4 {
		t.Errorf("Pix = %d, want %d", got, 200^4)
	}
}

func TestF64Flip(t *testing.T) {
	// Find the register for the first FPR tap (hash uses a different salt).
	reg := int(stats.Hash64(0^0xF0F0) % NumRegisters)
	p := Plan{Class: FPR, Reg: reg, Bit: 62, Site: 0, Window: 1, Region: RAny}
	m := NewWithPlan(p, 0)
	got := m.F64(1.0)
	want := math.Float64frombits(math.Float64bits(1.0) ^ (1 << 62))
	if got != want {
		t.Errorf("F64 = %v, want %v", got, want)
	}
}

func TestClassSeparation(t *testing.T) {
	// A GPR plan must never corrupt FPR taps and vice versa.
	p := Plan{Class: GPR, Reg: 0, Bit: 1, Site: 0, Window: 1 << 62, Region: RAny}
	m := NewWithPlan(p, 0)
	for i := 0; i < 50; i++ {
		if got := m.F64(2.5); got != 2.5 {
			t.Fatal("GPR plan corrupted an FPR tap")
		}
	}
}

func TestRegionScopedPlan(t *testing.T) {
	// Inject at region-scoped site 0 of RMatch; taps outside RMatch
	// must be untouched and must not consume the site.
	reg := int(stats.Hash64(10) % NumRegisters) // global idx when RMatch tap runs
	p := Plan{Class: GPR, Reg: reg, Bit: 0, Site: 0, Window: 1, Region: RMatch}
	m := NewWithPlan(p, 0)
	for i := 0; i < 10; i++ { // 10 taps in RApp, global idx 0..9
		if got := m.Idx(4); got != 4 {
			t.Fatal("out-of-region tap corrupted")
		}
	}
	restore := m.Enter(RMatch)
	got := m.Idx(4) // global idx 10, region-scoped idx 0
	restore()
	if got != 4^1 {
		t.Errorf("region-scoped tap = %d, want %d", got, 4^1)
	}
}

func TestRegionTapCounting(t *testing.T) {
	m := New()
	m.Idx(1)
	restore := m.Enter(RRemapBilinear)
	m.Idx(1)
	m.Idx(1)
	m.F64(1)
	restore()
	if got := m.RegionTaps(GPR, RRemapBilinear); got != 2 {
		t.Errorf("region GPR taps = %d, want 2", got)
	}
	if got := m.RegionTaps(FPR, RRemapBilinear); got != 1 {
		t.Errorf("region FPR taps = %d, want 1", got)
	}
	if got := m.RegionTaps(GPR, RApp); got != 1 {
		t.Errorf("app GPR taps = %d, want 1", got)
	}
}

func TestEnterRestoresNesting(t *testing.T) {
	m := New()
	r1 := m.Enter(RMatch)
	if m.CurrentRegion() != RMatch {
		t.Fatal("Enter did not switch")
	}
	r2 := m.Enter(RRANSAC)
	if m.CurrentRegion() != RRANSAC {
		t.Fatal("nested Enter did not switch")
	}
	r2()
	if m.CurrentRegion() != RMatch {
		t.Fatal("restore did not pop to RMatch")
	}
	r1()
	if m.CurrentRegion() != RApp {
		t.Fatal("restore did not pop to RApp")
	}
}

func TestStepBudgetPanicsAsHang(t *testing.T) {
	p := Plan{Class: GPR, Reg: 0, Bit: 0, Site: 1 << 62, Window: 1, Region: RAny}
	m := NewWithPlan(p, 10)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected hang panic")
		}
		if _, ok := r.(hangError); !ok {
			t.Fatalf("recovered %T, want hangError", r)
		}
	}()
	for i := 0; i < 100; i++ {
		m.Idx(i)
	}
}

func TestOpsAccounting(t *testing.T) {
	m := New()
	m.Ops(OpLoad, 10)
	restore := m.Enter(RWarpInvoker)
	m.Ops(OpLoad, 5)
	m.Ops(OpFloat, 3)
	restore()
	if got := m.OpCount(RApp, OpLoad); got != 10 {
		t.Errorf("RApp loads = %d", got)
	}
	if got := m.OpCount(RWarpInvoker, OpLoad); got != 5 {
		t.Errorf("warp loads = %d", got)
	}
	if got := m.TotalOps(OpLoad); got != 15 {
		t.Errorf("total loads = %d", got)
	}
	if got := m.TotalOps(OpFloat); got != 3 {
		t.Errorf("total floats = %d", got)
	}
}

func TestTapsCountAsOps(t *testing.T) {
	m := New()
	m.Idx(1)
	m.F64(1)
	if m.TotalOps(OpInt) != 1 || m.TotalOps(OpFloat) != 1 {
		t.Error("taps should count as ops")
	}
}

func TestStringers(t *testing.T) {
	if GPR.String() != "GPR" || FPR.String() != "FPR" {
		t.Error("Class strings")
	}
	if Class(9).String() == "" {
		t.Error("unknown class string empty")
	}
	if RAny.String() != "any" || RRemapBilinear.String() != "remapBilinear" {
		t.Error("Region strings")
	}
	if Region(200).String() == "" {
		t.Error("unknown region string empty")
	}
	for o := OpClass(0); o < NumOpClasses; o++ {
		if o.String() == "" {
			t.Error("op class string empty")
		}
	}
	if OpClass(99).String() == "" {
		t.Error("unknown op class string empty")
	}
	p := Plan{Class: FPR, Reg: 3, Bit: 17, Site: 42, Window: 2, Region: RAny}
	if p.String() == "" {
		t.Error("plan string empty")
	}
	for o := Outcome(0); o < NumOutcomes; o++ {
		if o.String() == "" {
			t.Error("outcome string empty")
		}
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome string empty")
	}
	for _, k := range []CrashKind{CrashNone, CrashSegv, CrashAbort, CrashKind(9)} {
		if k.String() == "" {
			t.Error("crash kind string empty")
		}
	}
}

// clipScope is the golden in-scope tap count the ClipWindow tests
// supply; their plans' windows reach well past it, so the clip is what
// closes them.
const clipScope = 6

// regForTap returns the register a tap of class c at whole-program
// class index idx is attributed to.
func regForTap(c Class, idx uint64) int {
	if c == FPR {
		idx ^= 0xF0F0
	}
	return int(stats.Hash64(idx) % NumRegisters)
}

// globalIdx returns the whole-program class index of the k-th in-scope
// tap tapScoped executes for region r.
func globalIdx(r Region, k uint64) uint64 {
	if r == RAny {
		return k
	}
	return 2*k + 1
}

// tapScoped executes one in-scope tap of class c — for a region-scoped
// plan preceded by one same-class tap outside the region, so scoped and
// whole-program indices differ — and reports whether it was corrupted.
func tapScoped(m *Machine, c Class, r Region) bool {
	tap := func() bool {
		if c == GPR {
			return m.Word(0) != 0
		}
		return m.F64(0) != 0
	}
	if r == RAny {
		return tap()
	}
	tap()
	defer m.Enter(r)()
	return tap()
}

// clipMissPlan returns a plan of class c in region r whose window opens
// at in-scope site 2 and whose register matches none of the in-scope
// taps left before clipScope.
func clipMissPlan(t *testing.T, c Class, r Region) Plan {
	t.Helper()
	const site = 2
	used := map[int]bool{}
	for k := uint64(site); k < clipScope; k++ {
		used[regForTap(c, globalIdx(r, k))] = true
	}
	for reg := 0; reg < NumRegisters; reg++ {
		if !used[reg] {
			return Plan{Class: c, Reg: reg, Bit: 0, Site: site, Window: 96, Region: r}
		}
	}
	t.Skip("every register matches an in-scope tap")
	return Plan{}
}

// clipCases lists the class/region pairs the ClipWindow tests sweep.
var clipCases = []struct {
	class  Class
	region Region
}{{GPR, RAny}, {GPR, RMatch}, {FPR, RAny}, {FPR, RMatch}}

// TestClipWindowEarlyMask checks that with the early mask on, a plan
// whose register misses the golden run's last in-scope tap abandons the
// run at exactly that tap, long before Site+Window.
func TestClipWindowEarlyMask(t *testing.T) {
	for _, c := range clipCases {
		m := NewWithPlan(clipMissPlan(t, c.class, c.region), 0)
		m.EnableEarlyMask()
		m.ClipWindow(clipScope)
		masked := -1
		for k := 0; k < clipScope && masked < 0; k++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(maskResolved); !ok {
							t.Fatalf("%v/%v: tap %d panicked %v, want maskResolved", c.class, c.region, k, r)
						}
						masked = k
					}
				}()
				if tapScoped(m, c.class, c.region) {
					t.Errorf("%v/%v: missed plan corrupted tap %d", c.class, c.region, k)
				}
			}()
		}
		if masked != clipScope-1 {
			t.Errorf("%v/%v: early mask at in-scope tap %d, want %d (the last)", c.class, c.region, masked, clipScope-1)
		}
		if m.Injected() || !m.Resolved() {
			t.Errorf("%v/%v: injected=%v resolved=%v, want false/true", c.class, c.region, m.Injected(), m.Resolved())
		}
	}
}

// TestClipWindowDisarms checks the clip without the early mask: the
// same miss leaves the machine resolved and not injected, and the run
// goes on. An unclipped machine stays armed after the same taps.
func TestClipWindowDisarms(t *testing.T) {
	for _, c := range clipCases {
		p := clipMissPlan(t, c.class, c.region)
		clipped, open := NewWithPlan(p, 0), NewWithPlan(p, 0)
		clipped.ClipWindow(clipScope)
		for k := 0; k < clipScope; k++ {
			tapScoped(clipped, c.class, c.region)
			tapScoped(open, c.class, c.region)
			if got := clipped.Resolved(); got != (k == clipScope-1) {
				t.Errorf("%v/%v: resolved=%v after in-scope tap %d", c.class, c.region, got, k)
			}
		}
		if clipped.Injected() {
			t.Errorf("%v/%v: clipped miss injected", c.class, c.region)
		}
		if open.Resolved() {
			t.Errorf("%v/%v: unclipped machine resolved before Site+Window", c.class, c.region)
		}
	}
}

// TestClipWindowLastTapStillInjects checks that a register match at the
// golden run's last in-scope tap fires the flip rather than the clip,
// early mask on or off.
func TestClipWindowLastTapStillInjects(t *testing.T) {
	for _, c := range clipCases {
		for _, early := range []bool{false, true} {
			last := uint64(clipScope - 1)
			p := Plan{Class: c.class, Reg: regForTap(c.class, globalIdx(c.region, last)),
				Bit: 1, Site: last, Window: 96, Region: c.region}
			m := NewWithPlan(p, 0)
			if early {
				m.EnableEarlyMask()
			}
			m.ClipWindow(clipScope)
			for k := uint64(0); k < clipScope; k++ {
				if got := tapScoped(m, c.class, c.region); got != (k == last) {
					t.Errorf("%v/%v early=%v: tap %d corrupted=%v", c.class, c.region, early, k, got)
				}
			}
			if !m.Injected() || !m.Resolved() {
				t.Errorf("%v/%v early=%v: injected=%v resolved=%v, want true/true",
					c.class, c.region, early, m.Injected(), m.Resolved())
			}
		}
	}
}

// spanOf returns a kernel span of n taps of class c, all inside region
// r (RAny: outside every plan's region).
func spanOf(c Class, r Region, n uint64) TapCounters {
	s := TapCounters{Steps: n}
	if c == GPR {
		s.GPR = n
	} else {
		s.FPR = n
	}
	if r != RAny {
		if c == GPR {
			s.RegionGPR[r] = n
		} else {
			s.RegionFPR[r] = n
		}
	}
	return s
}

// TestCanSkipTapsBoundary pins the inert-kernel skip bound in each class
// and in the whole-program and region-scoped counters: a span whose
// taps end just before the armed plan's site may run tap-free, one that
// ends exactly at the site may not, and neither may one that reaches
// far past it. AdvanceTaps then moves every counter by the span.
func TestCanSkipTapsBoundary(t *testing.T) {
	const done, site = 5, 12 // in-scope taps before the span; the plan's site
	for _, c := range clipCases {
		m := NewWithPlan(Plan{Class: c.class, Site: site, Window: 96, Region: c.region}, 0)
		for k := 0; k < done; k++ {
			tapScoped(m, c.class, c.region)
		}
		for _, tc := range []struct {
			n    uint64
			skip bool
		}{{site - done, true}, {site - done + 1, false}, {2 * (site - done), false}} {
			if got := m.CanSkipTaps(spanOf(c.class, c.region, tc.n)); got != tc.skip {
				t.Errorf("%v/%v: span of %d taps after %d: CanSkipTaps = %v, want %v",
					c.class, c.region, tc.n, done, got, tc.skip)
			}
		}
		span := spanOf(c.class, c.region, site-done)
		before := m.Counters()
		m.AdvanceTaps(span)
		after := m.Counters()
		if after.Steps != before.Steps+span.Steps || after.GPR != before.GPR+span.GPR || after.FPR != before.FPR+span.FPR ||
			after.For(c.class, c.region) != site {
			t.Errorf("%v/%v: AdvanceTaps moved %+v to %+v by %+v", c.class, c.region, before, after, span)
		}
	}
	// The hang budget bounds a skip too: the span may not cross it.
	m := NewWithPlan(Plan{Class: GPR, Site: 1 << 40, Window: 1, Region: RAny}, 10)
	if !m.CanSkipTaps(spanOf(GPR, RAny, 10)) || m.CanSkipTaps(spanOf(GPR, RAny, 11)) {
		t.Error("CanSkipTaps ignores the hang budget")
	}
}

// TestInertUnits pins the per-unit skip count: after done in-scope taps,
// with units of need in-scope taps each, the first k units may run
// tap-free iff done+k·need <= Site, capped at n. The table puts the
// site on a unit edge (the last tap of a unit), mid-unit and at the
// first tap of the next unit, in each class and in the whole-program
// and region-scoped counters.
func TestInertUnits(t *testing.T) {
	const done, need = 5, 4
	for _, c := range clipCases {
		for _, tc := range []struct {
			name string
			site uint64
			n    int
			want int
		}{
			{"site on the last tap of unit 2", done + 3*need - 1, 10, 2},
			{"site mid-unit 2", done + 2*need + 2, 10, 2},
			{"site at the first tap of unit 3", done + 3*need, 10, 3},
			{"n caps the count", done + 3*need, 2, 2},
			{"site at the next tap", done, 10, 0},
			{"no units asked", done + 3*need, 0, 0},
		} {
			m := NewWithPlan(Plan{Class: c.class, Site: tc.site, Window: 96, Region: c.region}, 0)
			for k := 0; k < done; k++ {
				tapScoped(m, c.class, c.region)
			}
			if got := m.InertUnits(spanOf(c.class, c.region, need), tc.n); got != tc.want {
				t.Errorf("%v/%v %s: InertUnits(%d) = %d, want %d", c.class, c.region, tc.name, tc.n, got, tc.want)
			}
			// Units with no taps in the plan's class, or outside its
			// region, cannot reach the site.
			other := spanOf(1-c.class, c.region, need)
			if c.region != RAny {
				other = spanOf(c.class, RAny, need)
			}
			if got := m.InertUnits(other, 10); got != 10 {
				t.Errorf("%v/%v %s: units outside the plan's scope: InertUnits = %d, want 10", c.class, c.region, tc.name, got)
			}
		}

		// An open window (the site passed, the plan still armed) admits
		// no unit, whatever its need. The plan's register misses the
		// window's taps so far.
		reg := 0
		for reg == regForTap(c.class, globalIdx(c.region, done-2)) || reg == regForTap(c.class, globalIdx(c.region, done-1)) {
			reg++
		}
		m := NewWithPlan(Plan{Class: c.class, Reg: reg, Site: done - 2, Window: 96, Region: c.region}, 0)
		for k := 0; k < done; k++ {
			tapScoped(m, c.class, c.region)
		}
		if m.Resolved() {
			t.Fatalf("%v/%v: plan resolved inside its window", c.class, c.region)
		}
		if got := m.InertUnits(spanOf(c.class, c.region, need), 10); got != 0 {
			t.Errorf("%v/%v: open window: InertUnits = %d, want 0", c.class, c.region, got)
		}
	}

	// The hang budget: units of 3 steps under a 10-step budget, from 0,
	// 1 and 2 steps taken.
	m := NewWithPlan(Plan{Class: GPR, Site: 1 << 40, Window: 1, Region: RAny}, 10)
	for steps, want := range []int{3, 3, 2} {
		if got := m.InertUnits(spanOf(FPR, RAny, 3), 5); got != want {
			t.Errorf("after %d steps: InertUnits under a 10-step budget = %d, want %d", steps, got, want)
		}
		m.Word(0)
	}

	// A resolved machine is bounded by the budget alone; golden and nil
	// machines never are.
	p := Plan{Class: GPR, Reg: regForTap(GPR, 0), Bit: 1, Site: 0, Window: 1, Region: RAny}
	fired := NewWithPlan(p, 100)
	fired.Word(0)
	if !fired.Injected() || !fired.Resolved() {
		t.Fatal("plan at tap 0 did not fire")
	}
	if got := fired.InertUnits(spanOf(GPR, RAny, 9), 50); got != 11 {
		t.Errorf("resolved machine: InertUnits = %d, want 11 (99 steps left / 9)", got)
	}
	if got := New().InertUnits(spanOf(GPR, RAny, 1<<30), 50); got != 50 {
		t.Errorf("golden machine: InertUnits = %d, want 50", got)
	}
	var nilM *Machine
	if got := nilM.InertUnits(spanOf(GPR, RAny, 9), 7); got != 7 {
		t.Errorf("nil machine: InertUnits = %d, want 7", got)
	}
}
