// Inert kernel invocations: when a *fault.Machine can prove that no
// armed plan site is reachable within a kernel's tap footprint (and
// the hang budget cannot expire inside it), every tap the kernel would
// issue is an identity pass-through — so the kernel may run its
// tap-free clean mirror, row-tiled across goroutines, and afterwards
// bulk-advance the tap counters and op accounts by the instrumented
// loop's exact footprint. Later taps then index the injection-site
// space exactly as if the instrumented loop had run, which is what
// keeps campaign results bit-identical to running the instrumented
// loops, the path every sink other than a *fault.Machine takes.
//
// The footprint formulas below are derived from (and must stay in
// lockstep with) the instrumented loops in warp.go; the counter-
// exactness test in the warp test suite compares a full instrumented
// run against an inert one, taps, ops and bytes.
package warp

import (
	"vsresil/internal/fault"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
)

// stage1Span is the tap footprint of the instrumented stage-1 warp
// loop over rows scanlines of pixels destination pixels, written of
// which pass the bounds/NaN reject. Per the loop in warpOntoCanvas:
// two Cnt taps for the row bounds, one Idx per row, two F64 per pixel
// (the inverse-mapped coordinates), and per accepted pixel three GPR
// taps inside remapBilinear (two Idx, one Pix) plus the destination
// Idx back in the invoker. Rejected pixels leave remapBilinear before
// its first tap.
func stage1Span(rows, pixels, written uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RWarpInvoker] = 2 + rows + written
	tc.RegionGPR[probe.RRemapBilinear] = 3 * written
	tc.GPR = tc.RegionGPR[probe.RWarpInvoker] + tc.RegionGPR[probe.RRemapBilinear]
	tc.RegionFPR[probe.RWarpInvoker] = 2 * pixels
	tc.FPR = tc.RegionFPR[probe.RWarpInvoker]
	tc.Steps = tc.GPR + tc.FPR
	return tc
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

// warpOntoCanvasMachine is WarpOntoCanvas for an injecting machine: it
// runs each stage through the tiled clean mirror whenever CanSkipTaps
// proves the stage inert, falling back to the instrumented loops
// otherwise (per stage — an armed plan targeting the blend region
// still gets a clean stage 1).
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
	// The eligibility check bounds written by pixels (every pixel
	// accepted); the post-hoc advance uses the exact count the clean
	// kernel reports.
	if !m.CanSkipTaps(stage1Span(uint64(th), pixels, pixels)) {
		return warpOntoCanvas(src, h, c, m)
	}
	vals := getFloats(tw*th, false)
	wts := getFloats(tw*th, true)
	defer putFloats(vals)
	defer putFloats(wts)
	cols := getFloats(3*tw, false)
	defer putFloats(cols)
	var proj scanProjector
	proj.init(inv, region.MinX, tw, cols)
	halfW := float64(src.W) / 2
	halfH := float64(src.H) / 2
	written := warpStage1Clean(src, &proj, region, vals, wts, c.Mode, halfW, halfH)
	m.AdvanceTaps(stage1Span(uint64(th), pixels, uint64(written)))
	m.OpsIn(probe.RWarpInvoker, probe.OpInt, 6*pixels+2+uint64(th)+uint64(written))
	m.OpsIn(probe.RWarpInvoker, probe.OpLoad, 4*pixels)
	m.OpsIn(probe.RWarpInvoker, probe.OpFloat, 26*pixels)
	m.OpsIn(probe.RRemapBilinear, probe.OpInt, 3*uint64(written))

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
