package warp

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"vsresil/internal/fault"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
)

// NewCanvas allocates an overwrite-mode canvas covering b.
func NewCanvas(b Bounds) *Canvas { return NewCanvasMode(b, BlendOverwrite) }

func gradientImage(w, h int) *imgproc.Gray {
	g := imgproc.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Set(x, y, uint8((x*3+y*5)%256))
		}
	}
	return g
}

func TestBoundsOps(t *testing.T) {
	a := Bounds{0, 0, 10, 5}
	if a.W() != 10 || a.H() != 5 || a.Empty() {
		t.Errorf("bounds basics wrong: %+v", a)
	}
	b := Bounds{5, 2, 20, 8}
	u := a.Union(b)
	if u != (Bounds{0, 0, 20, 8}) {
		t.Errorf("Union = %+v", u)
	}
	i := a.Intersect(b)
	if i != (Bounds{5, 2, 10, 5}) {
		t.Errorf("Intersect = %+v", i)
	}
	var empty Bounds
	if !empty.Empty() {
		t.Error("zero bounds should be empty")
	}
	if got := empty.Union(a); got != a {
		t.Errorf("empty union = %+v", got)
	}
	if got := a.Union(empty); got != a {
		t.Errorf("union empty = %+v", got)
	}
	disjoint := Bounds{100, 100, 110, 110}
	if !a.Intersect(disjoint).Empty() {
		t.Error("disjoint intersect should be empty")
	}
}

func TestProjectBoundsIdentity(t *testing.T) {
	b := ProjectBounds(geom.Identity(), 100, 50)
	if b.MinX != 0 || b.MinY != 0 || b.MaxX < 100 || b.MaxY < 50 {
		t.Errorf("ProjectBounds identity = %+v", b)
	}
}

func TestProjectBoundsTranslation(t *testing.T) {
	b := ProjectBounds(geom.Translation(10, -20), 100, 50)
	if b.MinX != 10 || b.MinY != -20 {
		t.Errorf("ProjectBounds translation = %+v", b)
	}
}

func TestProjectBoundsDegenerate(t *testing.T) {
	h := geom.Homography{math.NaN(), 0, 0, 0, 1, 0, 0, 0, 1}
	if b := ProjectBounds(h, 10, 10); !b.Empty() {
		t.Errorf("NaN transform bounds = %+v", b)
	}
}

func TestWarpPerspectiveIdentity(t *testing.T) {
	src := gradientImage(40, 30)
	dst, err := WarpPerspective(src, geom.Identity(), 40, 30, nil)
	if err != nil {
		t.Fatalf("WarpPerspective: %v", err)
	}
	if !dst.Equal(src) {
		t.Error("identity warp changed the image")
	}
}

func TestWarpPerspectiveTranslation(t *testing.T) {
	src := gradientImage(40, 30)
	dst, err := WarpPerspective(src, geom.Translation(5, 3), 40, 30, nil)
	if err != nil {
		t.Fatalf("WarpPerspective: %v", err)
	}
	// dst(x, y) = src(x-5, y-3) where defined.
	for y := 3; y < 30; y++ {
		for x := 5; x < 40; x++ {
			if dst.At(x, y) != src.At(x-5, y-3) {
				t.Fatalf("translated pixel (%d,%d) = %d, want %d", x, y, dst.At(x, y), src.At(x-5, y-3))
			}
		}
	}
	// Uncovered region is black.
	if dst.At(0, 0) != 0 {
		t.Error("uncovered pixel not black")
	}
}

func TestWarpPerspectiveSingular(t *testing.T) {
	src := gradientImage(10, 10)
	var h geom.Homography // zero matrix
	if _, err := WarpPerspective(src, h, 10, 10, nil); err == nil {
		t.Error("expected error for singular transform")
	}
}

func TestWarpRoundTripRecoversImage(t *testing.T) {
	// Warp forward then backward: interior pixels should be close to
	// the original (bilinear blur allows small error). The fixture
	// must be smooth — a wrapping gradient has 255->0 jumps where
	// bilinear interpolation legitimately produces large differences.
	src := imgproc.NewGray(60, 60)
	for y := 0; y < 60; y++ {
		for x := 0; x < 60; x++ {
			v := 128 + 90*math.Sin(float64(x)/9)*math.Cos(float64(y)/7)
			src.Set(x, y, imgproc.SaturateUint8(v))
		}
	}
	h := geom.Translation(7.5, 3.25)
	inv, err := h.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := WarpPerspective(src, h, 80, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := WarpPerspective(fwd, inv, 60, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	var worst int
	for y := 2; y < 56; y++ {
		for x := 2; x < 50; x++ {
			d := int(back.At(x, y)) - int(src.At(x, y))
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 30 {
		t.Errorf("round trip worst interior error %d", worst)
	}
}

func TestWarpPerspectiveInstrumentedIdentical(t *testing.T) {
	src := gradientImage(32, 32)
	h := geom.Translation(2, 2).Mul(geom.Rotation(0.1))
	a, err := WarpPerspective(src, h, 40, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WarpPerspective(src, h, 40, 40, fault.New())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("instrumentation changed warp output")
	}
}

func TestWarpRegionAccounting(t *testing.T) {
	src := gradientImage(32, 32)
	m := fault.New()
	if _, err := WarpPerspective(src, geom.Identity(), 32, 32, m); err != nil {
		t.Fatal(err)
	}
	if m.RegionTaps(fault.GPR, fault.RWarpInvoker) == 0 {
		t.Error("no taps in warp invoker region")
	}
	if m.RegionTaps(fault.GPR, fault.RRemapBilinear) == 0 {
		t.Error("no taps in remap region")
	}
	if m.RegionTaps(fault.FPR, fault.RWarpInvoker) == 0 {
		t.Error("no FPR taps in warp region")
	}
}

func TestCanvasAccumulateResolve(t *testing.T) {
	c := NewCanvasMode(Bounds{0, 0, 4, 4}, BlendFeather)
	c.Accumulate(1, 1, 100, 1)
	c.Accumulate(1, 1, 200, 1)
	out := c.Resolve(nil)
	if got := out.At(1, 1); got != 150 {
		t.Errorf("blended pixel = %d, want 150", got)
	}
	if got := out.At(0, 0); got != 0 {
		t.Errorf("untouched pixel = %d, want 0", got)
	}
}

func TestCanvasWeightedBlend(t *testing.T) {
	c := NewCanvasMode(Bounds{0, 0, 2, 2}, BlendFeather)
	c.Accumulate(0, 0, 100, 3)
	c.Accumulate(0, 0, 200, 1)
	out := c.Resolve(nil)
	if got := out.At(0, 0); got != 125 {
		t.Errorf("weighted blend = %d, want 125", got)
	}
}

func TestCanvasIgnoresOutside(t *testing.T) {
	c := NewCanvas(Bounds{0, 0, 2, 2})
	c.Accumulate(-1, 0, 50, 1) // silently ignored
	c.Accumulate(5, 5, 50, 1)
	c.Accumulate(0, 0, 50, 0) // zero weight ignored
	if cov := coverage(c); cov != 0 {
		t.Errorf("coverage = %v, want 0", cov)
	}
}

func TestCanvasNegativeOrigin(t *testing.T) {
	c := NewCanvas(Bounds{-5, -5, 5, 5})
	c.Accumulate(-5, -5, 77, 1)
	out := c.Resolve(nil)
	if out.W != 10 || out.H != 10 {
		t.Fatalf("canvas image %dx%d", out.W, out.H)
	}
	if out.At(0, 0) != 77 {
		t.Error("negative-origin pixel not mapped to (0,0)")
	}
}

func TestCanvasSizeGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for oversized canvas")
		}
	}()
	NewCanvas(Bounds{0, 0, 1 << 14, 1 << 14})
}

// TestCanvasCorruptOffsetPanics checks that a corrupted raw offset
// faults on the value buffer as a runtime error (a Crash in a
// campaign) in both blend modes, although an overwrite canvas keeps no
// weight buffer.
func TestCanvasCorruptOffsetPanics(t *testing.T) {
	for _, mode := range []BlendMode{BlendOverwrite, BlendFeather} {
		c := NewCanvasMode(Bounds{0, 0, 4, 4}, mode)
		if (c.weights == nil) != (mode == BlendOverwrite) {
			t.Errorf("mode %v: weights allocated %v", mode, c.weights != nil)
		}
		for _, i := range []int{-1, len(c.values)} {
			func() {
				defer func() {
					if _, ok := recover().(runtime.Error); !ok {
						t.Errorf("mode %v: offset %d did not fault as a runtime error", mode, i)
					}
				}()
				c.writeIdx(i, 9, 1)
			}()
		}
	}
}

// coverage returns the fraction of canvas pixels that received at
// least one sample.
func coverage(c *Canvas) float64 {
	if len(c.touched) == 0 {
		return 0
	}
	n := 0
	for _, t := range c.touched {
		if t {
			n++
		}
	}
	return float64(n) / float64(len(c.touched))
}

func TestCanvasCoverage(t *testing.T) {
	c := NewCanvas(Bounds{0, 0, 2, 2})
	c.Accumulate(0, 0, 1, 1)
	c.Accumulate(1, 1, 1, 1)
	if cov := coverage(c); cov != 0.5 {
		t.Errorf("coverage = %v, want 0.5", cov)
	}
	empty := &Canvas{}
	if coverage(empty) != 0 {
		t.Error("empty canvas coverage should be 0")
	}
}

func TestWarpOntoCanvasIdentity(t *testing.T) {
	src := gradientImage(20, 20)
	c := NewCanvas(Bounds{0, 0, 20, 20})
	n, err := WarpOntoCanvas(src, geom.Identity(), c, nil)
	if err != nil {
		t.Fatalf("WarpOntoCanvas: %v", err)
	}
	if n == 0 {
		t.Fatal("no pixels written")
	}
	out := c.Resolve(nil)
	// Interior pixels should match the source exactly (single frame,
	// no blending competition).
	for y := 1; y < 19; y++ {
		for x := 1; x < 19; x++ {
			if out.At(x, y) != src.At(x, y) {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, out.At(x, y), src.At(x, y))
			}
		}
	}
}

func TestWarpOntoCanvasOverlapBlends(t *testing.T) {
	// Two constant frames overlap: the blend must land between them.
	a := imgproc.NewGray(10, 10)
	a.Fill(100)
	b := imgproc.NewGray(10, 10)
	b.Fill(200)
	c := NewCanvasMode(Bounds{0, 0, 15, 10}, BlendFeather)
	if _, err := WarpOntoCanvas(a, geom.Identity(), c, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := WarpOntoCanvas(b, geom.Translation(5, 0), c, nil); err != nil {
		t.Fatal(err)
	}
	out := c.Resolve(nil)
	v := out.At(7, 5) // in the overlap
	if v <= 100 || v >= 200 {
		t.Errorf("overlap pixel = %d, want strictly between 100 and 200", v)
	}
}

func TestWarpOntoCanvasCompositionalMasking(t *testing.T) {
	// The §VI-C mechanism: corrupt one frame's pixels, then stitch an
	// identical clean frame over the same area with much higher
	// weight. The later frame dilutes the corruption.
	clean := imgproc.NewGray(10, 10)
	clean.Fill(100)
	corrupted := clean.Clone()
	corrupted.Set(5, 5, 255)

	c1 := NewCanvas(Bounds{0, 0, 10, 10})
	if _, err := WarpOntoCanvas(corrupted, geom.Identity(), c1, nil); err != nil {
		t.Fatal(err)
	}
	only := c1.Resolve(nil)
	if only.At(5, 5) != 255 {
		t.Fatal("corruption should be visible alone")
	}

	c2 := NewCanvas(Bounds{0, 0, 10, 10})
	if _, err := WarpOntoCanvas(corrupted, geom.Identity(), c2, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := WarpOntoCanvas(clean, geom.Identity(), c2, nil); err != nil {
			t.Fatal(err)
		}
	}
	blended := c2.Resolve(nil)
	if got := blended.At(5, 5); got > 130 {
		t.Errorf("overlap did not dilute corruption: %d", got)
	}
}

func TestWarpOntoCanvasOffCanvas(t *testing.T) {
	src := gradientImage(10, 10)
	c := NewCanvas(Bounds{0, 0, 10, 10})
	n, err := WarpOntoCanvas(src, geom.Translation(100, 100), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("off-canvas warp wrote %d pixels", n)
	}
}

func TestWarpOntoCanvasSingular(t *testing.T) {
	src := gradientImage(10, 10)
	c := NewCanvas(Bounds{0, 0, 10, 10})
	var h geom.Homography
	if _, err := WarpOntoCanvas(src, h, c, nil); err == nil {
		t.Error("expected error for singular transform")
	}
}

// Property: warping by a pure translation relocates pixel content
// exactly for integer shifts.
func TestPropertyIntegerTranslationExact(t *testing.T) {
	src := gradientImage(24, 24)
	f := func(dxRaw, dyRaw uint8) bool {
		dx := int(dxRaw % 10)
		dy := int(dyRaw % 10)
		dst, err := WarpPerspective(src, geom.Translation(float64(dx), float64(dy)), 34, 34, nil)
		if err != nil {
			return false
		}
		for y := dy; y < dy+24; y += 5 {
			for x := dx; x < dx+24; x += 5 {
				if dst.At(x, y) != src.At(x-dx, y-dy) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWarpPerspective(b *testing.B) {
	src := gradientImage(320, 240)
	h := geom.Translation(10, 5).Mul(geom.Rotation(0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WarpPerspective(src, h, 340, 260, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarpPerspectiveInstrumented(b *testing.B) {
	src := gradientImage(320, 240)
	h := geom.Translation(10, 5).Mul(geom.Rotation(0.05))
	m := fault.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WarpPerspective(src, h, 340, 260, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarpOntoCanvas(b *testing.B) {
	src := gradientImage(320, 240)
	h := geom.Translation(10, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCanvas(Bounds{0, 0, 340, 260})
		if _, err := WarpOntoCanvas(src, h, c, nil); err != nil {
			b.Fatal(err)
		}
	}
}
