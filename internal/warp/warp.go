// Package warp implements perspective warping — the paper's hot
// function. OpenCV's WarpPerspective accounts for 54.4% of the VS
// application's execution time (Fig 8); it is implemented here, as in
// OpenCV, as an invoker loop (warpPerspectiveInvoker) that inverse-maps
// destination pixels and a bilinear remapper (remapBilinear) that
// samples the source.
//
// The package also provides the panorama canvas that frames are
// composited onto. Compositing overlap is the paper's "compositional
// masking" mechanism (§VI-C): a corrupted frame region can be stitched
// over by a later frame, converting a would-be SDC into a Mask.
package warp

import (
	"math"

	"vsresil/internal/fault"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
)

// Bounds is an axis-aligned integer rectangle [MinX,MaxX)x[MinY,MaxY).
type Bounds struct {
	MinX, MinY, MaxX, MaxY int
}

// W returns the rectangle width (0 when empty).
func (b Bounds) W() int {
	if b.MaxX <= b.MinX {
		return 0
	}
	return b.MaxX - b.MinX
}

// H returns the rectangle height (0 when empty).
func (b Bounds) H() int {
	if b.MaxY <= b.MinY {
		return 0
	}
	return b.MaxY - b.MinY
}

// Empty reports whether the rectangle has no area.
func (b Bounds) Empty() bool { return b.W() == 0 || b.H() == 0 }

// Union returns the smallest rectangle covering both.
func (b Bounds) Union(o Bounds) Bounds {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Bounds{
		MinX: minInt(b.MinX, o.MinX),
		MinY: minInt(b.MinY, o.MinY),
		MaxX: maxInt(b.MaxX, o.MaxX),
		MaxY: maxInt(b.MaxY, o.MaxY),
	}
}

// Intersect returns the overlap of both rectangles (possibly empty).
func (b Bounds) Intersect(o Bounds) Bounds {
	r := Bounds{
		MinX: maxInt(b.MinX, o.MinX),
		MinY: maxInt(b.MinY, o.MinY),
		MaxX: minInt(b.MaxX, o.MaxX),
		MaxY: minInt(b.MaxY, o.MaxY),
	}
	if r.MaxX < r.MinX {
		r.MaxX = r.MinX
	}
	if r.MaxY < r.MinY {
		r.MaxY = r.MinY
	}
	return r
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ProjectBounds returns the integer bounding box of the four corners
// of a wxh image transformed by h.
func ProjectBounds(h geom.Homography, w, ht int) Bounds {
	corners := [4]geom.Pt{
		{X: 0, Y: 0},
		{X: float64(w - 1), Y: 0},
		{X: float64(w - 1), Y: float64(ht - 1)},
		{X: 0, Y: float64(ht - 1)},
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, c := range corners {
		p := h.Apply(c)
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if math.IsInf(minX, 0) || math.IsInf(minY, 0) || math.IsInf(maxX, 0) || math.IsInf(maxY, 0) ||
		math.IsNaN(minX) || math.IsNaN(minY) || math.IsNaN(maxX) || math.IsNaN(maxY) {
		return Bounds{}
	}
	return Bounds{
		MinX: int(math.Floor(minX)),
		MinY: int(math.Floor(minY)),
		MaxX: int(math.Ceil(maxX)) + 1,
		MaxY: int(math.Ceil(maxY)) + 1,
	}
}

// MaxCanvasPixels guards against corrupted transforms exploding the
// panorama allocation; exceeding it panics, which the fault monitor
// classifies as a crash (the original application would be killed by
// the OOM killer or fail allocation — also a crash).
const MaxCanvasPixels = 1 << 26

// BlendMode selects how overlapping frames combine on a canvas.
type BlendMode uint8

// Blend modes.
const (
	// BlendOverwrite composites frames in order with later frames
	// replacing earlier content — the mosaicking behavior of the
	// paper's pipeline, and the mechanism behind compositional
	// masking (§VI-C): corrupted output of an early frame is erased
	// wherever a later frame covers it.
	BlendOverwrite BlendMode = iota
	// BlendFeather averages overlapping frames with border-feathered
	// weights for seamless blends (an optional quality refinement).
	BlendFeather
)

// Canvas accumulates warped frames in global panorama coordinates.
type Canvas struct {
	B    Bounds
	Mode BlendMode
	// GainCompensation enables per-frame exposure compensation: before
	// a frame is composited, its intensity is scaled so its mean over
	// the already-covered overlap matches the canvas — one of the
	// pipeline's rendering refinements against visible seams (§III-A's
	// "corrective actions"). The gain is clamped to [1/MaxGain, MaxGain].
	GainCompensation bool
	// weights is nil on an overwrite canvas, whose weight is exactly 1
	// wherever touched is set (see at).
	weights []float64
	values  []float64
	touched []bool
}

// MaxGain bounds exposure-compensation gains.
const MaxGain = 1.5

// NewCanvasMode allocates a canvas covering b with the given blend
// mode. The backing buffers may come from a package pool (see
// Recycle); they are cleared either way, so a recycled canvas is
// indistinguishable from a fresh one.
func NewCanvasMode(b Bounds, mode BlendMode) *Canvas {
	n := b.W() * b.H()
	if n > MaxCanvasPixels {
		panic("warp: canvas size exceeds safety bound")
	}
	c := &Canvas{B: b, Mode: mode, values: getFloats(n, true), touched: getBools(n)}
	if mode == BlendFeather {
		c.weights = getFloats(n, true)
	}
	return c
}

// Recycle returns the canvas's backing buffers to the package pool so
// the next NewCanvasMode in the same process reuses them instead of
// allocating. The canvas must not be used afterwards. Callers that
// only keep the Resolve output (the stitcher) call this once per
// composited segment; it is optional — an un-recycled canvas is simply
// collected by the GC.
func (c *Canvas) Recycle() {
	putFloats(c.weights)
	putFloats(c.values)
	putBools(c.touched)
	c.weights, c.values, c.touched = nil, nil, nil
}

// idx maps global coordinates to buffer offset; callers must ensure
// containment.
func (c *Canvas) idx(x, y int) int {
	return (y-c.B.MinY)*c.B.W() + (x - c.B.MinX)
}

// Contains reports whether the global coordinate lies on the canvas.
func (c *Canvas) Contains(x, y int) bool {
	return x >= c.B.MinX && x < c.B.MaxX && y >= c.B.MinY && y < c.B.MaxY
}

// Accumulate adds a weighted sample at global (x, y), ignoring
// off-canvas coordinates. This is the checked entry point; the warp
// hot loop uses writeIdx with precomputed (crash-prone) indices.
func (c *Canvas) Accumulate(x, y int, v float64, w float64) {
	if !c.Contains(x, y) || w <= 0 {
		return
	}
	c.writeIdx(c.idx(x, y), v, w)
}

// writeIdx stores a sample at a raw buffer offset. Like the compiled
// store through a computed address in the original binary, a corrupted
// offset faults (slice bounds panic -> campaign Crash).
func (c *Canvas) writeIdx(i int, v, w float64) {
	switch c.Mode {
	case BlendFeather:
		c.values[i] += v * w
		c.weights[i] += w
	default: // BlendOverwrite: later frames replace earlier content.
		c.values[i] = v
	}
	c.touched[i] = true
}

// at is the rendered value of touched offset i: the weighted mean on a
// feather canvas, the value itself on an overwrite canvas (weight 1).
func (c *Canvas) at(i int) float64 {
	if c.weights == nil {
		return c.values[i]
	}
	return c.values[i] / c.weights[i]
}

// Resolve renders the canvas to an 8-bit image; untouched pixels are
// black. The divide-and-saturate step is floating point funneled
// through the uint8 clamp — the FPR masking path. s is any probe.Sink;
// pass probe.Nop{} for an uninstrumented render (nil is normalized).
func (c *Canvas) Resolve(s probe.Sink) *imgproc.Gray {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return resolveClean(c)
	}
	return resolveCanvas(c, s)
}

// resolveCanvas is the instrumented render. A *fault.Machine sink
// whose armed site the render cannot reach renders on the clean mirror
// and advances by the render's footprint (see inert.go).
func resolveCanvas(c *Canvas, m probe.Sink) *imgproc.Gray {
	if fm, ok := m.(*fault.Machine); ok && fm.CanSkipTaps(resolveSpan(uint64(c.B.H()))) {
		out := resolveClean(c)
		advanceResolve(fm, uint64(c.B.H()), uint64(c.B.W())*uint64(c.B.H()))
		return out
	}
	defer m.Enter(probe.RBlend)()
	out := imgproc.NewGray(c.B.W(), c.B.H())
	w := m.Cnt(c.B.W())
	h := m.Cnt(c.B.H())
	for y := 0; y < h; y++ {
		m.Ops(probe.OpFloat, uint64(w))
		m.Ops(probe.OpStore, uint64(w))
		rowBase := m.Idx(y * out.W)
		for x := 0; x < w; x++ {
			i := rowBase + x
			if !c.touched[i] {
				continue
			}
			out.Pix[i] = imgproc.SaturateUint8(c.at(i))
		}
	}
	return out
}

// resolveClean is the tap-free canvas render, row-tiled.
func resolveClean(c *Canvas) *imgproc.Gray {
	out := imgproc.NewGray(c.B.W(), c.B.H())
	forEachBand(c.B.H(), func(_, lo, hi int) { resolveBand(c, out, lo, hi) })
	return out
}

// resolveBand is the tap-free canvas render over output rows [y0, y1)
// — the same divide-and-saturate expression as resolveCanvas with the
// taps compiled out. Bands write disjoint rows of out.
func resolveBand(c *Canvas, out *imgproc.Gray, y0, y1 int) {
	w := c.B.W()
	for y := y0; y < y1; y++ {
		rowBase := y * out.W
		for x := 0; x < w; x++ {
			i := rowBase + x
			if !c.touched[i] {
				continue
			}
			out.Pix[i] = imgproc.SaturateUint8(c.at(i))
		}
	}
}

// WarpOntoCanvas composites src onto the canvas through the transform
// h (src coordinates -> global coordinates). It reproduces OpenCV's
// warpPerspectiveInvoker structure: iterate destination pixels inside
// the projected bounds, inverse-map each through h^-1, and sample the
// source with remapBilinear. Samples are feather-weighted by their
// distance to the source frame border so overlapping frames blend
// smoothly.
//
// It returns the number of destination pixels written. s is any
// probe.Sink; pass probe.Nop{} for an uninstrumented warp (nil is
// normalized). The no-op instantiation runs a tap-free scanline kernel
// for stage 1, so clean serving runs pay no per-pixel instrumentation
// overhead.
func WarpOntoCanvas(src *imgproc.Gray, h geom.Homography, c *Canvas, s probe.Sink) (int, error) {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return warpOntoCanvas(src, h, c, probe.Nop{})
	}
	return warpOntoCanvas(src, h, c, s)
}

func warpOntoCanvas[S probe.Sink](src *imgproc.Gray, h geom.Homography, c *Canvas, m S) (int, error) {
	defer m.Enter(probe.RWarpInvoker)()
	inv, err := h.Inverse()
	if err != nil {
		return 0, err
	}
	region := ProjectBounds(h, src.W, src.H).Intersect(c.B)
	if region.Empty() {
		return 0, nil
	}
	// Stage 1 (the hot function): warp the source into a temporary
	// frame-extent image, exactly like OpenCV's warpPerspective
	// producing a `warped` Mat. Corrupted destination addresses here
	// displace rows *within the frame extent* (or fault), matching
	// the original binary where the invoker writes into the warped
	// temp image rather than the final panorama.
	tw, th := region.W(), region.H()
	// vals needs no clearing: stage 2 and frameGain only read vals[i]
	// where wts[i] != 0, and the single (tapped) store index i writes
	// both arrays together, so every readable vals element is written
	// this call. wts is the "pixel produced" mask and must start zero.
	vals := getFloats(tw*th, false)
	wts := getFloats(tw*th, true) // 0 = pixel not produced
	defer putFloats(vals)
	defer putFloats(wts)
	// The scanline kernel is unconditionally safe here: the column
	// count tw is untapped, so a corrupted row counter or row index
	// never sends tx outside the cached column products, and the
	// projected values are a pure function of (tx, fy) identical to
	// inv.Apply's.
	cols := getFloats(3*tw, false)
	defer putFloats(cols)
	var proj scanProjector
	proj.init(inv, region.MinX, tw, cols)
	_, clean := any(m).(probe.Nop)
	// A *fault.Machine sink (itself, not a wrapper) runs the rows and
	// the blend that cannot reach its armed site on the clean mirror.
	fm, _ := any(m).(*fault.Machine)
	written := 0
	if clean {
		// Devirtualized clean path: identical arithmetic with the taps
		// compiled out and the bilinear sample inlined into the row
		// loop. Bit-exactness vs the instrumented loop under a plan-free
		// sink is pinned by the equivalence tests.
		written = warpStage1Clean(src, &proj, region, vals, wts, c.Mode)
	} else {
		// Row by row, fm.InertUnits says how many of the next rows
		// cannot reach the armed site (each bounded by rowsSpan(1, tw,
		// tw)); those run on the clean mirror and are accounted with
		// their exact footprint, the next row runs instrumented, and
		// the loop asks again. A fully inert warp is one banded clean
		// run; a partial run stays on the calling goroutine, since it
		// only happens inside campaign trials, whose workers already
		// occupy the CPUs. Rows outside [0, th), which only a corrupted
		// bound reaches, always run instrumented.
		unit := rowsSpan(1, uint64(tw), uint64(tw))
		y0 := m.Cnt(0)
		y1 := m.Cnt(th)
		for ty := y0; ty < y1; {
			if fm != nil && ty >= 0 && ty < th {
				if k := fm.InertUnits(unit, min(y1, th)-ty); k > 0 {
					var w int
					if k == th {
						w = warpStage1Clean(src, &proj, region, vals, wts, c.Mode)
					} else {
						w = warpStage1Band(src, proj, region, ty, ty+k, vals, wts, c.Mode)
					}
					advanceRows(fm, uint64(k), uint64(k)*uint64(tw), uint64(w))
					written += w
					ty += k
					continue
				}
			}
			written += warpRow(src, &proj, region, ty, vals, wts, c.Mode, m)
			ty++
		}
	}

	// Stage 2: composite the warped frame onto the panorama canvas —
	// the stitching copy of the original pipeline (blend region,
	// bounds-checked like the library's ROI copy).
	if !c.GainCompensation && (clean || fm != nil && fm.CanSkipTaps(stage2Span(uint64(th)))) {
		forEachBand(th, func(_, lo, hi int) {
			warpStage2Band(c, region, vals, wts, 1.0, lo, hi)
		})
		if fm != nil {
			advanceStage2(fm, uint64(th), uint64(tw)*uint64(th))
		}
	} else {
		warpStage2Instr(c, region, vals, wts, m)
	}
	return written, nil
}

// warpStage2Instr is the instrumented stage-2 composite loop, which a
// *fault.Machine also runs whenever the blend taps cannot be proven
// inert (always under gain compensation).
func warpStage2Instr[S probe.Sink](c *Canvas, region Bounds, vals, wts []float64, m S) {
	tw, th := region.W(), region.H()
	restore := m.Enter(probe.RBlend)
	gain := 1.0
	if c.GainCompensation {
		gain = frameGain(c, region, vals, wts, m)
	}
	for ty := 0; ty < th; ty++ {
		m.Ops(probe.OpLoad, uint64(tw))
		m.Ops(probe.OpStore, uint64(tw))
		rowIdx := m.Idx(ty * tw)
		for tx := 0; tx < tw; tx++ {
			i := rowIdx + tx
			if wts[i] == 0 {
				continue
			}
			c.Accumulate(region.MinX+tx, region.MinY+ty, vals[i]*gain, wts[i])
		}
	}
	restore()
}

// warpStage2Band is the tap-free stage-2 composite over destination
// rows [y0, y1): the same accumulate expression as the instrumented
// loop with the taps compiled out. A warped row lands on exactly one
// canvas row, so concurrent bands write disjoint canvas rows.
func warpStage2Band(c *Canvas, region Bounds, vals, wts []float64, gain float64, y0, y1 int) {
	tw := region.W()
	for ty := y0; ty < y1; ty++ {
		rowIdx := ty * tw
		for tx := 0; tx < tw; tx++ {
			i := rowIdx + tx
			if wts[i] == 0 {
				continue
			}
			c.Accumulate(region.MinX+tx, region.MinY+ty, vals[i]*gain, wts[i])
		}
	}
}

// warpRow is the instrumented stage-1 body for destination row ty, in
// RWarpInvoker. It returns the pixels written. Its tap footprint is
// rowsSpan(1, tw, written).
func warpRow[S probe.Sink](src *imgproc.Gray, proj *scanProjector, region Bounds, ty int, vals, wts []float64, mode BlendMode, m S) int {
	tw := region.W()
	halfW := float64(src.W) / 2
	halfH := float64(src.H) / 2
	m.Ops(probe.OpInt, uint64(tw)*6)
	m.Ops(probe.OpLoad, uint64(tw)*4)
	// Per-pixel arithmetic of the inverse map + bilinear sample:
	// 3x3 matrix-vector product (15 flops), perspective divide (2)
	// and bilinear interpolation (7).
	m.Ops(probe.OpFloat, uint64(tw)*24)
	// Destination row base: address arithmetic through a GPR, as in
	// the compiled invoker. Corruption displaces or faults the row's
	// stores.
	rowIdx := m.Idx(ty * tw)
	proj.setRow(float64(region.MinY + ty))
	written := 0
	for tx := 0; tx < tw; tx++ {
		// Inverse map the destination pixel to source coordinates.
		// These coordinate temporaries are the workload's dominant
		// floating-point state.
		spX, spY := proj.at(tx)
		sx := m.F64(spX)
		sy := m.F64(spY)
		v, ok := remapBilinear(src, sx, sy, m)
		if !ok {
			continue
		}
		weight := 1.0
		if mode == BlendFeather {
			// Feather weight: 1 at frame center falling toward the
			// border, so seams blend.
			wx := 1 - math.Abs(sx-halfW)/halfW
			wy := 1 - math.Abs(sy-halfH)/halfH
			weight = wx * wy
			if weight < 0.05 {
				weight = 0.05
			}
		}
		// Per-pixel destination address (base + row + column), as the
		// compiled store computes it.
		i := m.Idx(rowIdx + tx)
		vals[i] = float64(v)
		wts[i] = weight
		written++
	}
	return written
}

// warpStage1Clean is the uninstrumented stage-1 warp over every row:
// one scanline at a time through the cached projector with the
// bilinear sample inlined by hand (the instrumented remapBilinear is
// too large to inline and its per-pixel call would otherwise dominate
// the clean path). Every expression mirrors warpRow exactly — same
// projection, same NaN/bounds rejects, same interpolation association
// order — so a clean run is byte-identical to a plan-free instrumented
// one. Rows are tiled across goroutines when GOMAXPROCS and the row
// count allow; each band writes a disjoint row range of vals/wts and
// per-band written counts are summed in band order, so the result is
// the same for any band count.
func warpStage1Clean(src *imgproc.Gray, proj *scanProjector, region Bounds, vals, wts []float64, mode BlendMode) int {
	th := region.H()
	n := bandCount(th)
	if n <= 1 {
		return warpStage1Band(src, *proj, region, 0, th, vals, wts, mode)
	}
	perBand := make([]int, n)
	forEachBand(th, func(b, lo, hi int) {
		// Each band carries its own projector copy: the column caches
		// are shared read-only, the row products are per-band state.
		perBand[b] = warpStage1Band(src, *proj, region, lo, hi, vals, wts, mode)
	})
	written := 0
	for _, w := range perBand {
		written += w
	}
	return written
}

// warpStage1Band runs the clean stage-1 kernel over destination rows
// [y0, y1) of region. proj is taken by value so concurrent bands do
// not share row state.
func warpStage1Band(src *imgproc.Gray, proj scanProjector, region Bounds, y0, y1 int, vals, wts []float64, mode BlendMode) int {
	tw := region.W()
	halfW := float64(src.W) / 2
	halfH := float64(src.H) / 2
	fw := float64(src.W - 1)
	fh := float64(src.H - 1)
	written := 0
	for ty := y0; ty < y1; ty++ {
		rowIdx := ty * tw
		proj.setRow(float64(region.MinY + ty))
		for tx := 0; tx < tw; tx++ {
			sx, sy := proj.at(tx)
			if math.IsNaN(sx) || math.IsNaN(sy) || sx < 0 || sy < 0 || sx > fw || sy > fh {
				continue
			}
			x0 := int(sx)
			y0 := int(sy)
			x1 := x0 + 1
			y1 := y0 + 1
			if x1 >= src.W {
				x1 = src.W - 1
			}
			if y1 >= src.H {
				y1 = src.H - 1
			}
			p00 := float64(src.Pix[y0*src.W+x0])
			p10 := float64(src.Pix[y0*src.W+x1])
			p01 := float64(src.Pix[y1*src.W+x0])
			p11 := float64(src.Pix[y1*src.W+x1])
			fx := sx - math.Floor(sx)
			fy := sy - math.Floor(sy)
			top := p00 + fx*(p10-p00)
			bot := p01 + fx*(p11-p01)
			v := imgproc.SaturateUint8(top + fy*(bot-top))
			weight := 1.0
			if mode == BlendFeather {
				wx := 1 - math.Abs(sx-halfW)/halfW
				wy := 1 - math.Abs(sy-halfH)/halfH
				weight = wx * wy
				if weight < 0.05 {
					weight = 0.05
				}
			}
			i := rowIdx + tx
			vals[i] = float64(v)
			wts[i] = weight
			written++
		}
	}
	return written
}

// frameGain estimates the exposure gain that matches the incoming
// frame's intensity to the canvas content it overlaps.
func frameGain[S probe.Sink](c *Canvas, region Bounds, vals, wts []float64, m S) float64 {
	tw := region.W()
	var canvasSum, frameSum float64
	var n int
	for ty := 0; ty < region.H(); ty++ {
		gy := region.MinY + ty
		for tx := 0; tx < tw; tx++ {
			i := ty*tw + tx
			if wts[i] == 0 {
				continue
			}
			gx := region.MinX + tx
			if !c.Contains(gx, gy) {
				continue
			}
			ci := c.idx(gx, gy)
			if !c.touched[ci] {
				continue
			}
			canvasSum += c.at(ci)
			frameSum += vals[i]
			n++
		}
	}
	m.Ops(probe.OpFloat, uint64(n)*3)
	if n < 16 || frameSum <= 0 {
		return 1 // not enough overlap to estimate a gain
	}
	gain := m.F64(canvasSum / frameSum)
	if gain > MaxGain {
		gain = MaxGain
	}
	if gain < 1/MaxGain {
		gain = 1 / MaxGain
	}
	if gain != gain { // NaN from a corrupted division
		gain = 1
	}
	return gain
}

// remapBilinear samples src at fractional coordinates with bilinear
// interpolation — the second hot function of the case study (§V-C).
// The integer lattice indices flow through GPR taps (index arithmetic)
// and the fractional weights through FPR taps. Corrupted indices
// access out of bounds and panic, the crash mechanism of the paper's
// GPR campaign.
func remapBilinear[S probe.Sink](src *imgproc.Gray, x, y float64, m S) (uint8, bool) {
	prev := m.Swap(probe.RRemapBilinear)
	defer m.Swap(prev)
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0, false
	}
	if x < 0 || y < 0 || x > float64(src.W-1) || y > float64(src.H-1) {
		return 0, false
	}
	x0 := m.Idx(int(x))
	y0 := m.Idx(int(y))
	x1 := x0 + 1
	y1 := y0 + 1
	if x1 >= src.W {
		x1 = src.W - 1
	}
	if y1 >= src.H {
		y1 = src.H - 1
	}
	// Raw index arithmetic like the release-build library code:
	// base + y*stride + x with no bounds assertion. A corrupted x0/y0
	// faults with a runtime error — the segmentation-fault analogue.
	p00 := float64(m.Pix(src.Pix[y0*src.W+x0]))
	p10 := float64(src.Pix[y0*src.W+x1])
	p01 := float64(src.Pix[y1*src.W+x0])
	p11 := float64(src.Pix[y1*src.W+x1])
	fx := x - math.Floor(x)
	fy := y - math.Floor(y)
	top := p00 + fx*(p10-p00)
	bot := p01 + fx*(p11-p01)
	return imgproc.SaturateUint8(top + fy*(bot-top)), true
}

// WarpPerspective is the standalone hot function: it warps src through
// h into a dstW x dstH image, with destination pixel (x, y) sampling
// source location h^-1(x, y). This is the exact shape of the paper's
// WP toy benchmark (image + matrix in, image out). s is any
// probe.Sink; pass probe.Nop{} for an uninstrumented warp (nil is
// normalized).
func WarpPerspective(src *imgproc.Gray, h geom.Homography, dstW, dstH int, s probe.Sink) (*imgproc.Gray, error) {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return warpPerspective(src, h, dstW, dstH, probe.Nop{})
	}
	return warpPerspective(src, h, dstW, dstH, s)
}

func warpPerspective[S probe.Sink](src *imgproc.Gray, h geom.Homography, dstW, dstH int, m S) (*imgproc.Gray, error) {
	defer m.Enter(probe.RWarpInvoker)()
	inv, err := h.Inverse()
	if err != nil {
		return nil, err
	}
	dst := imgproc.NewGray(dstW, dstH)
	hh := m.Cnt(dstH)
	ww := m.Cnt(dstW)
	// Unlike WarpOntoCanvas, the inner-loop bound ww here is tapped: a
	// corrupted width must keep the original per-pixel semantics (it
	// may hang or fault exactly as the reference loop does), so the
	// scanline kernel only engages when the tapped bound matches the
	// real width its column cache was sized for.
	fast := ww == dstW
	var proj scanProjector
	if fast {
		cols := getFloats(3*dstW, false)
		defer putFloats(cols)
		proj.init(inv, 0, dstW, cols)
	}
	if _, clean := any(m).(probe.Nop); clean && fast {
		warpDstClean(src, &proj, dst, hh)
		return dst, nil
	}
	for y := 0; y < hh; y++ {
		m.Ops(probe.OpFloat, uint64(ww)*24)
		m.Ops(probe.OpLoad, uint64(ww)*4)
		m.Ops(probe.OpStore, uint64(ww))
		rowBase := m.Idx(y * dstW)
		if fast {
			proj.setRow(float64(y))
		}
		for x := 0; x < ww; x++ {
			var spX, spY float64
			if fast {
				spX, spY = proj.at(x)
			} else {
				sp := inv.Apply(geom.Pt{X: float64(x), Y: float64(y)})
				spX, spY = sp.X, sp.Y
			}
			sx := m.F64(spX)
			sy := m.F64(spY)
			v, ok := remapBilinear(src, sx, sy, m)
			if !ok {
				continue
			}
			dst.Pix[m.Idx(rowBase+x)] = v
		}
	}
	return dst, nil
}

// warpDstClean is warpPerspective's uninstrumented pixel loop, the
// same hand-inlined bilinear kernel as warpStage1Clean but writing
// straight into the destination image.
func warpDstClean(src *imgproc.Gray, proj *scanProjector, dst *imgproc.Gray, rows int) {
	forEachBand(rows, func(_, lo, hi int) {
		warpDstBand(src, *proj, dst, lo, hi)
	})
}

// warpDstBand renders destination rows [y0, y1); proj is copied per
// band because setRow mutates the row products.
func warpDstBand(src *imgproc.Gray, proj scanProjector, dst *imgproc.Gray, y0, y1 int) {
	fw := float64(src.W - 1)
	fh := float64(src.H - 1)
	for y := y0; y < y1; y++ {
		rowBase := y * dst.W
		proj.setRow(float64(y))
		for x := 0; x < dst.W; x++ {
			sx, sy := proj.at(x)
			if math.IsNaN(sx) || math.IsNaN(sy) || sx < 0 || sy < 0 || sx > fw || sy > fh {
				continue
			}
			x0 := int(sx)
			y0 := int(sy)
			x1 := x0 + 1
			y1 := y0 + 1
			if x1 >= src.W {
				x1 = src.W - 1
			}
			if y1 >= src.H {
				y1 = src.H - 1
			}
			p00 := float64(src.Pix[y0*src.W+x0])
			p10 := float64(src.Pix[y0*src.W+x1])
			p01 := float64(src.Pix[y1*src.W+x0])
			p11 := float64(src.Pix[y1*src.W+x1])
			fx := sx - math.Floor(sx)
			fy := sy - math.Floor(sy)
			top := p00 + fx*(p10-p00)
			bot := p01 + fx*(p11-p01)
			dst.Pix[rowBase+x] = imgproc.SaturateUint8(top + fy*(bot-top))
		}
	}
}
