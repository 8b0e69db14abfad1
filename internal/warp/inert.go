// Inert kernel invocations: when a *fault.Machine can prove that no
// armed plan site is reachable within a run of kernel units (and the
// hang budget cannot expire inside it), every tap those units would
// issue is an identity pass-through — so they may run the tap-free
// clean mirror, row-tiled across goroutines for a whole kernel, and
// afterwards
// bulk-advance the tap counters and op accounts by the instrumented
// loop's exact footprint. Later taps then index the injection-site
// space exactly as if the instrumented loop had run, which is what
// keeps campaign results bit-identical to running the instrumented
// loops, the path every sink other than a *fault.Machine takes.
//
// Stage 1 is split per destination row (Machine.InertUnits): a plan
// whose site falls inside a frame's warp runs only the rows that can
// reach the site instrumented, and the rows before them and after the
// plan resolves on the clean mirror.
//
// The footprint formulas below are derived from (and must stay in
// lockstep with) the instrumented loops in warp.go; the counter-
// exactness tests in the warp test suite compare instrumented runs
// against inert and split ones, taps, ops and bytes.
package warp

import (
	"vsresil/internal/fault"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
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
// data-dependent, so the machine path falls back to the instrumented
// loop instead of modelling it.)
func stage2Span(rows uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RBlend] = rows
	tc.GPR = rows
	tc.Steps = rows
	return tc
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

// warpOntoCanvasMachine is WarpOntoCanvas for an injecting machine:
// stage 1 runs per row, inert rows on the clean mirror (see
// warpStage1Machine); stage 2 runs the banded clean blend whenever
// CanSkipTaps proves it inert and the instrumented loop otherwise.
func warpOntoCanvasMachine(src *imgproc.Gray, h geom.Homography, c *Canvas, m *fault.Machine) (int, error) {
	inv, err := h.Inverse()
	if err != nil {
		// Match the instrumented path's accounting: it enters and
		// leaves RWarpInvoker without tapping before returning the
		// error, which is a no-op.
		return 0, err
	}
	region := ProjectBounds(h, src.W, src.H).Intersect(c.B)
	if region.Empty() {
		return 0, nil
	}
	tw, th := region.W(), region.H()
	pixels := uint64(tw) * uint64(th)
	vals := getFloats(tw*th, false)
	wts := getFloats(tw*th, true)
	defer putFloats(vals)
	defer putFloats(wts)
	cols := getFloats(3*tw, false)
	defer putFloats(cols)
	var proj scanProjector
	proj.init(inv, region.MinX, tw, cols)
	written := warpStage1Machine(src, &proj, region, vals, wts, c.Mode, m)

	if !c.GainCompensation && m.CanSkipTaps(stage2Span(uint64(th))) {
		forEachBand(th, func(_, lo, hi int) {
			warpStage2Band(c, region, vals, wts, 1.0, lo, hi)
		})
		m.AdvanceTaps(stage2Span(uint64(th)))
		m.OpsIn(probe.RBlend, probe.OpInt, uint64(th))
		m.OpsIn(probe.RBlend, probe.OpLoad, pixels)
		m.OpsIn(probe.RBlend, probe.OpStore, pixels)
	} else {
		warpStage2Instr(c, region, vals, wts, m)
	}
	return written, nil
}

// warpStage1Machine is the stage-1 row loop under an injecting
// machine. The two row-bound Cnt taps always run instrumented. Then,
// row by row, Machine.InertUnits says how many of the next rows cannot
// reach the armed site (each bounded by rowsSpan(1, tw, tw)); those run
// on the clean mirror and are accounted with their exact footprint,
// the next row runs instrumented through warpRow, and the loop asks
// again. A fully inert warp is one banded clean run over every row; a
// partial run stays on the calling goroutine, since it only happens
// inside campaign trials, whose workers already occupy the CPUs. Rows
// outside [0, th), which only a corrupted bound reaches, always run
// instrumented.
func warpStage1Machine(src *imgproc.Gray, proj *scanProjector, region Bounds, vals, wts []float64, mode BlendMode, m *fault.Machine) int {
	defer m.Enter(probe.RWarpInvoker)()
	tw, th := region.W(), region.H()
	unit := rowsSpan(1, uint64(tw), uint64(tw))
	written := 0
	y0 := m.Cnt(0)
	y1 := m.Cnt(th)
	for ty := y0; ty < y1; {
		if ty >= 0 && ty < th {
			if k := m.InertUnits(unit, min(y1, th)-ty); k > 0 {
				var w int
				if k == th {
					w = warpStage1Clean(src, proj, region, vals, wts, mode)
				} else {
					w = warpStage1Band(src, *proj, region, ty, ty+k, vals, wts, mode)
				}
				advanceRows(m, uint64(k), uint64(k)*uint64(tw), uint64(w))
				written += w
				ty += k
				continue
			}
		}
		written += warpRow(src, proj, region, ty, vals, wts, mode, m)
		ty++
	}
	return written
}

// resolveCanvasMachine is Canvas.Resolve for an injecting machine,
// with the same inert-or-instrumented split as the warp stages.
func resolveCanvasMachine(c *Canvas, m *fault.Machine) *imgproc.Gray {
	h := c.B.H()
	if m.CanSkipTaps(resolveSpan(uint64(h))) {
		out := resolveClean(c)
		m.AdvanceTaps(resolveSpan(uint64(h)))
		wh := uint64(c.B.W()) * uint64(h)
		m.OpsIn(probe.RBlend, probe.OpInt, 2+uint64(h))
		m.OpsIn(probe.RBlend, probe.OpFloat, wh)
		m.OpsIn(probe.RBlend, probe.OpStore, wh)
		return out
	}
	return resolveCanvas(c, m)
}
