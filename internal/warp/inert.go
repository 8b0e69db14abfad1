// Inert kernel units: when the sink is a *fault.Machine that can prove
// no armed plan site is reachable within a run of kernel units (and the
// hang budget cannot expire inside it), every tap those units would
// issue is an identity pass-through — so the instrumented loops in
// warp.go run them on the tap-free clean mirror, row-tiled across
// goroutines for a whole kernel, and afterwards bulk-advance the tap
// counters and op accounts by the instrumented loop's exact footprint.
// Later taps then index the injection-site space exactly as if the
// instrumented loop had run, which is what keeps campaign results
// bit-identical to running the instrumented loops, the path every
// other sink takes.
//
// Stage 1 is split per destination row (Machine.InertUnits): a plan
// whose site falls inside a frame's warp runs only the rows that can
// reach the site instrumented, and the rows before them and after the
// plan resolves on the clean mirror. Stage 2 and the canvas render
// skip as a whole (Machine.CanSkipTaps).
//
// The footprint formulas below are derived from (and must stay in
// lockstep with) the instrumented loops in warp.go; the counter-
// exactness tests in the warp test suite compare instrumented runs
// against inert and split ones, taps, ops and bytes.
package warp

import (
	"vsresil/internal/fault"
	"vsresil/internal/probe"
)

// rowsSpan is the tap footprint of rows instrumented stage-1 rows
// (warpRow) over pixels destination pixels, written of which pass the
// bounds/NaN reject: one Idx per row, two F64 per pixel (the
// inverse-mapped coordinates), and per accepted pixel three GPR taps
// inside remapBilinear (two Idx, one Pix) plus the destination Idx back
// in the invoker. Rejected pixels leave remapBilinear before its first
// tap. rowsSpan(1, tw, tw) bounds any one row.
func rowsSpan(rows, pixels, written uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RWarpInvoker] = rows + written
	tc.RegionGPR[probe.RRemapBilinear] = 3 * written
	tc.GPR = tc.RegionGPR[probe.RWarpInvoker] + tc.RegionGPR[probe.RRemapBilinear]
	tc.RegionFPR[probe.RWarpInvoker] = 2 * pixels
	tc.FPR = tc.RegionFPR[probe.RWarpInvoker]
	tc.Steps = tc.GPR + tc.FPR
	return tc
}

// advanceRows accounts rows stage-1 rows that ran on the clean mirror:
// rowsSpan's taps plus warpRow's op counts, in the regions the
// instrumented row would have attributed them to.
func advanceRows(m *fault.Machine, rows, pixels, written uint64) {
	m.AdvanceTaps(rowsSpan(rows, pixels, written))
	m.OpsIn(probe.RWarpInvoker, probe.OpInt, 6*pixels+rows+written)
	m.OpsIn(probe.RWarpInvoker, probe.OpLoad, 4*pixels)
	m.OpsIn(probe.RWarpInvoker, probe.OpFloat, 26*pixels)
	m.OpsIn(probe.RRemapBilinear, probe.OpInt, 3*written)
}

// stage2Span is the tap footprint of the instrumented stage-2
// composite loop without gain compensation: one Idx per row, in
// RBlend. (With gain compensation the frameGain F64 tap is
// data-dependent, so a machine runs the instrumented loop instead of
// modelling it.)
func stage2Span(rows uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RBlend] = rows
	tc.GPR = rows
	tc.Steps = rows
	return tc
}

// advanceStage2 accounts a stage-2 composite of rows rows and pixels
// pixels that ran on the clean mirror: stage2Span's taps plus
// warpStage2Instr's op counts.
func advanceStage2(m *fault.Machine, rows, pixels uint64) {
	m.AdvanceTaps(stage2Span(rows))
	m.OpsIn(probe.RBlend, probe.OpInt, rows)
	m.OpsIn(probe.RBlend, probe.OpLoad, pixels)
	m.OpsIn(probe.RBlend, probe.OpStore, pixels)
}

// resolveSpan is the tap footprint of resolveCanvas over an
// rows-scanline canvas: two Cnt taps for the dimensions plus one Idx
// per row, all in RBlend.
func resolveSpan(rows uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RBlend] = 2 + rows
	tc.GPR = 2 + rows
	tc.Steps = 2 + rows
	return tc
}

// advanceResolve accounts a render of a rows-scanline canvas of pixels
// pixels that ran on the clean mirror: resolveSpan's taps plus
// resolveCanvas's op counts.
func advanceResolve(m *fault.Machine, rows, pixels uint64) {
	m.AdvanceTaps(resolveSpan(rows))
	m.OpsIn(probe.RBlend, probe.OpInt, 2+rows)
	m.OpsIn(probe.RBlend, probe.OpFloat, pixels)
	m.OpsIn(probe.RBlend, probe.OpStore, pixels)
}
