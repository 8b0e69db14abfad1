package warp_test

import (
	"bytes"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
	"vsresil/internal/warp"
)

// machineCounters snapshots every observable counter of a fault
// machine: total steps, tap-space sizes per class, and the full
// per-region per-class op-count matrix. The inert tiled kernels must
// leave all of them bit-identical to the instrumented loops.
type machineCounters struct {
	steps, gpr, fpr uint64
	regionGPR       [fault.NumRegions]uint64
	regionFPR       [fault.NumRegions]uint64
	ops             [fault.NumRegions][fault.NumOpClasses]uint64
}

func snapshot(m *fault.Machine) machineCounters {
	c := machineCounters{steps: m.Steps(), gpr: m.GPRTaps(), fpr: m.FPRTaps()}
	for r := fault.Region(0); r < fault.NumRegions; r++ {
		c.regionGPR[r] = m.RegionTaps(fault.GPR, r)
		c.regionFPR[r] = m.RegionTaps(fault.FPR, r)
		for oc := fault.OpClass(0); oc < fault.NumOpClasses; oc++ {
			c.ops[r][oc] = m.OpCount(r, oc)
		}
	}
	return c
}

// randomHomography perturbs the identity into a well-conditioned
// projective transform: mild affine distortion, a translation, and a
// small perspective term (large ones project the source off-canvas).
func randomHomography(rng *stats.RNG) geom.Homography {
	return geom.Homography{
		1 + 0.2*(rng.Float64()-0.5), 0.2 * (rng.Float64() - 0.5), 16 * (rng.Float64() - 0.5),
		0.2 * (rng.Float64() - 0.5), 1 + 0.2*(rng.Float64()-0.5), 16 * (rng.Float64() - 0.5),
		0.002 * (rng.Float64() - 0.5), 0.002 * (rng.Float64() - 0.5), 1,
	}
}

func randomGray(rng *stats.RNG, w, h int) *imgproc.Gray {
	g := imgproc.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Uint64())
	}
	return g
}

// TestInertTiledWarpEquivalence guards the tiled inert kernels: a
// machine that cannot be hit inside the warp (here: a plan-free
// machine) runs the tap-free banded kernels and accounts its taps and
// op counts post hoc from the closed-form spans. That accounting must
// be exact — same pixels, same step count, same per-region tap spaces,
// same op matrix — as the instrumented loop it replaces (the same
// machine behind faulttest.GenericSink), for every blend mode and for the
// resolve pass, otherwise a later trial resumed from such a golden
// capture would bucket against drifted checkpoint counters.
func TestInertTiledWarpEquivalence(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(0x71_1ED)

	for trial := 0; trial < 30; trial++ {
		src := randomGray(rng, 24+rng.Intn(40), 24+rng.Intn(40))
		h := randomHomography(rng)
		if _, err := h.Inverse(); err != nil {
			continue
		}
		mode := warp.BlendOverwrite
		if trial%2 == 1 {
			mode = warp.BlendFeather
		}

		run := func(inert bool) ([]uint8, machineCounters) {
			m := fault.New()
			var s probe.Sink = faulttest.GenericSink{Sink: m}
			if inert {
				s = m
			}
			bounds := warp.ProjectBounds(h, src.W, src.H)
			c := warp.NewCanvasMode(bounds, mode)
			if _, err := warp.WarpOntoCanvas(src, h, c, s); err != nil {
				t.Fatalf("trial %d: WarpOntoCanvas: %v", trial, err)
			}
			img := c.Resolve(s)
			return append([]uint8(nil), img.Pix...), snapshot(m)
		}

		tiledPix, tiledCtr := run(true)
		refPix, refCtr := run(false)
		if !bytes.Equal(tiledPix, refPix) {
			t.Errorf("trial %d (h=%v): resolved pixels differ between tiled inert and instrumented", trial, h)
		}
		if tiledCtr != refCtr {
			t.Errorf("trial %d (h=%v): inert tap accounting drifted:\n tiled %+v\n   ref %+v", trial, h, tiledCtr, refCtr)
		}
	}
}
