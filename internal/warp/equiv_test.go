package warp_test

import (
	"bytes"
	"fmt"
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

// TestInertWarpRowSplit checks the per-row split of stage 1 under an
// armed machine: with a plan landing at the first and at the last tap of
// each class in every row (and in the row-bound Cnt pair), or a hang
// budget expiring there, the machine path — inert rows on the clean
// mirror, the rest through warpRow — must leave the same resolved
// pixels, panic kind, tap counters and op matrix as the instrumented
// loop behind faulttest.GenericSink.
func TestInertWarpRowSplit(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(0x5B117)
	cases := 0
	for trial := 0; trial < 4; trial++ {
		src := randomGray(rng, 14+rng.Intn(10), 12+rng.Intn(10))
		h := randomHomography(rng)
		if _, err := h.Inverse(); err != nil {
			continue
		}
		mode := warp.BlendMode(trial % 2)
		bounds := warp.ProjectBounds(h, src.W, src.H)
		kernel := func(s probe.Sink) string {
			c := warp.NewCanvasMode(bounds, mode)
			if _, err := warp.WarpOntoCanvas(src, h, c, s); err != nil {
				return err.Error()
			}
			return string(c.Resolve(s).Pix)
		}
		// Units: the row-bound Cnt pair, then one per destination row.
		// Row ty's first F64 is stage 1's (2·tw·ty)-th; its Idx precedes
		// it. The last row ends where the blend (RBlend) begins.
		rows := func(taps []faulttest.Tap) [][2]int {
			units := [][2]int{{0, 2}}
			f := 0
			for i, tp := range taps {
				switch {
				case tp.Region == probe.RBlend:
					units[len(units)-1][1] = i
					return units
				case tp.Kind == 'F':
					if f%(2*bounds.W()) == 0 {
						units[len(units)-1][1] = i - 1
						units = append(units, [2]int{i - 1, len(taps)})
					}
					f++
				}
			}
			return units
		}
		cases += faulttest.CheckUnitSplit(t, fmt.Sprintf("trial %d (h=%v)", trial, h), kernel, rows)
	}
	if cases == 0 {
		t.Fatal("no split case ran")
	}
}
