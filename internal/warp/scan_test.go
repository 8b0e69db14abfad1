package warp

import (
	"math"
	"testing"

	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// sameFloat reports bit identity, treating any two NaNs as equal (the
// sampler rejects NaN coordinates whatever their payload).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkProjector compares scanProjector.at against inv.Apply over tw
// columns from minX on the row fy and reports how many of the
// evaluated points hit Apply's |w| < 1e-12 clamp.
func checkProjector(t *testing.T, inv geom.Homography, minX, tw int, fy float64) (clamped int) {
	t.Helper()
	var p scanProjector
	p.init(inv, minX, tw, make([]float64, 3*tw))
	p.setRow(fy)
	for tx := 0; tx < tw; tx++ {
		gx := float64(minX + tx)
		if w := inv[6]*gx + inv[7]*fy + inv[8]; math.Abs(w) < 1e-12 {
			clamped++
		}
		want := inv.Apply(geom.Pt{X: gx, Y: fy})
		x, y := p.at(tx)
		if !sameFloat(x, want.X) || !sameFloat(y, want.Y) {
			t.Fatalf("inv=%v (%v, %v): at = (%v, %v), Apply = (%v, %v)",
				inv, gx, fy, x, y, want.X, want.Y)
		}
	}
	return clamped
}

// TestScanlineWarpEquivalence is the arbiter of the scanline kernel:
// scanProjector.at must equal geom.Homography.Apply bit for bit, over
// random well-conditioned and wild homographies and through the
// |w| < 1e-12 clamp (tiny, +0 and -0 denominators). Both warp kernels
// then sample exactly where the per-pixel inverse map would, which the
// end-to-end half pins against a test-local per-pixel reference.
func TestScanlineWarpEquivalence(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(0x5CA7)
	sym := func(scale float64) float64 { return scale * (rng.Float64() - 0.5) }
	for trial := 0; trial < 300; trial++ {
		var inv geom.Homography
		if trial%2 == 0 {
			inv = geom.Homography{
				1 + sym(0.4), sym(0.4), sym(64),
				sym(0.4), 1 + sym(0.4), sym(64),
				sym(0.004), sym(0.004), 1,
			}
		} else {
			for i := range inv {
				inv[i] = sym(200) * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		checkProjector(t, inv, rng.Intn(200)-100, 1+rng.Intn(64), float64(rng.Intn(200)-100))
	}

	// Denominators that vanish on the scanline: w = gx - 5 is exactly
	// +0 at gx = 5; a 1e-13 slope keeps |w| below the clamp on every
	// column; and -1·0 + -1·0 + -0 is a signed zero.
	clamped := 0
	for _, c := range []struct {
		inv geom.Homography
		fy  float64
	}{
		{geom.Homography{2, 0.5, 1, 0.25, 3, -1, 1, 0, -5}, 7},
		{geom.Homography{2, 0.5, 1, 0.25, 3, -1, 1e-13, 0, 0}, 0},
		{geom.Homography{2, 0.5, 1, 0.25, 3, -1, -1, -1, math.Copysign(0, -1)}, 0},
	} {
		clamped += checkProjector(t, c.inv, 0, 10, c.fy)
	}
	if clamped == 0 {
		t.Fatal("no evaluated point exercised the |w| < 1e-12 clamp")
	}

	for trial := 0; trial < 20; trial++ {
		src := imgproc.NewGray(24+rng.Intn(40), 24+rng.Intn(40))
		for i := range src.Pix {
			src.Pix[i] = uint8(rng.Uint64())
		}
		h := geom.Homography{
			1 + sym(0.2), sym(0.2), sym(16),
			sym(0.2), 1 + sym(0.2), sym(16),
			sym(0.002), sym(0.002), 1,
		}
		inv, err := h.Inverse()
		if err != nil {
			continue
		}
		// Per-pixel reference: sample h^-1(x, y) for every pixel of
		// the destination grid starting at (minX, minY).
		ref := func(minX, minY, w, hh int) []uint8 {
			out := make([]uint8, w*hh)
			for y := 0; y < hh; y++ {
				for x := 0; x < w; x++ {
					sp := inv.Apply(geom.Pt{X: float64(minX + x), Y: float64(minY + y)})
					out[y*w+x], _ = remapBilinear(src, sp.X, sp.Y, probe.Nop{})
				}
			}
			return out
		}

		wp, err := WarpPerspective(src, h, src.W+8, src.H+8, probe.Nop{})
		if err != nil {
			t.Fatal(err)
		}
		if want := ref(0, 0, wp.W, wp.H); string(wp.Pix) != string(want) {
			t.Errorf("trial %d: WarpPerspective differs from the per-pixel reference", trial)
		}

		// Overwrite mode stores each produced sample with weight 1, so
		// the resolved canvas is the reference sample wherever the
		// sampler accepted and black elsewhere.
		c := NewCanvasMode(ProjectBounds(h, src.W, src.H), BlendOverwrite)
		if _, err := WarpOntoCanvas(src, h, c, probe.Nop{}); err != nil {
			t.Fatal(err)
		}
		img := c.Resolve(probe.Nop{})
		if want := ref(c.B.MinX, c.B.MinY, c.B.W(), c.B.H()); string(img.Pix) != string(want) {
			t.Errorf("trial %d: WarpOntoCanvas differs from the per-pixel reference", trial)
		}
	}
}
