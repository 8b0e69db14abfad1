package features

import (
	"fmt"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// machineState is every observable a kernel leaves on a fault machine:
// the tap counters and the per-region op-count matrix.
type machineState struct {
	taps fault.TapCounters
	ops  [fault.NumRegions][fault.NumOpClasses]uint64
}

func stateOf(m *fault.Machine) machineState {
	s := machineState{taps: m.Counters()}
	for r := fault.Region(0); r < fault.NumRegions; r++ {
		for c := fault.OpClass(0); c < fault.NumOpClasses; c++ {
			s.ops[r][c] = m.OpCount(r, c)
		}
	}
	return s
}

func noiseImage(rng *stats.RNG, w, h int) *imgproc.Gray {
	g := imgproc.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Uint64())
	}
	return g
}

// TestFASTScoreDirectMatchesAt pins the detector's direct-index circle
// read to the bounds-checked At() reference it replaces for in-image
// centers: same score and the same taps and op counts, at every
// interior pixel, for several thresholds and arc lengths.
func TestFASTScoreDirectMatchesAt(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(0xFA57)
	g := noiseImage(rng, 40, 32)
	var deltas [16]int
	for i, off := range circleOffsets16 {
		deltas[i] = off[1]*g.W + off[0]
	}
	for _, arc := range []int{9, 12} {
		for _, thr := range []int{5, 20, 60} {
			for y := 3; y < g.H-3; y++ {
				for x := 3; x < g.W-3; x++ {
					center := int(g.Pix[y*g.W+x])
					lo, hi := center-thr, center+thr
					mRef, mDirect := fault.New(), fault.New()
					ref := fastScore(g, x, y, lo, hi, arc, mRef)
					got := fastScoreDirect(g, y*g.W+x, &deltas, lo, hi, arc, mDirect)
					if got != ref || stateOf(mDirect) != stateOf(mRef) {
						t.Fatalf("(%d,%d) arc=%d thr=%d: direct score %d, At score %d (or machine state differs)",
							x, y, arc, thr, got, ref)
					}
				}
			}
		}
	}
}

// TestExtractorTablesMatchReference pins the extractor's precomputed
// tables (circle half-widths, pre-rotated patterns, their margins) to
// the reference paths an Extractor without tables takes: the masked
// AtClamped orientation loop and live pattern rotation. Key points
// cover the interior, the band between the patch radius and the
// rotated-pattern margin (clamped reads), and points the describer
// drops; descriptors, angles, taps and op counts must all agree.
func TestExtractorTablesMatchReference(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(0x0AB)
	for _, radius := range []int{8, 15} {
		e := NewExtractor(ORBConfig{PatchRadius: radius, PatternSeed: 0x08b, AngleBins: 30})
		ref := &Extractor{cfg: e.cfg, pattern: e.pattern}
		g := noiseImage(rng, 72, 64)
		var kps []KeyPoint
		for i := 0; i < 200; i++ {
			kps = append(kps, KeyPoint{X: rng.Intn(g.W), Y: rng.Intn(g.H)})
		}
		for _, kp := range kps {
			if kp.X < radius || kp.Y < radius || kp.X >= g.W-radius || kp.Y >= g.H-radius {
				continue
			}
			mRef, mTab := fault.New(), fault.New()
			if a, b := orientation(ref, g, kp.X, kp.Y, mRef), orientation(e, g, kp.X, kp.Y, mTab); a != b ||
				stateOf(mRef) != stateOf(mTab) {
				t.Fatalf("radius %d %+v: table orientation %v, reference %v (or machine state differs)", radius, kp, b, a)
			}
		}

		// Behind GenericSink both run the instrumented loop, taps and all.
		mRef, mTab := fault.New(), fault.New()
		refKps, refDescs := ref.Describe(g, kps, faulttest.GenericSink{Sink: mRef})
		tabKps, tabDescs := e.Describe(g, kps, faulttest.GenericSink{Sink: mTab})
		if len(refKps) != len(tabKps) || len(refKps) == 0 {
			t.Fatalf("radius %d: kept %d key points with tables, %d without", radius, len(tabKps), len(refKps))
		}
		for i := range refKps {
			if refKps[i] != tabKps[i] || refDescs[i] != tabDescs[i] {
				t.Fatalf("radius %d key point %d: table (%+v, %x) vs reference (%+v, %x)",
					radius, i, tabKps[i], tabDescs[i], refKps[i], refDescs[i])
			}
		}
		if stateOf(mRef) != stateOf(mTab) {
			t.Errorf("radius %d: Describe machine state differs with and without tables", radius)
		}
	}
}

// TestInertDescribeSplit checks the per-key-point split of describe
// under an armed machine: with a plan landing at the first and at the
// last tap of each class of every key point (and at the key-point
// count), or a hang budget expiring there, the machine path — inert key
// points on the Nop sink, the rest instrumented — must leave the same
// key points and descriptors, panic kind, tap counters and op matrix as
// the instrumented loop behind faulttest.GenericSink. The key points mix
// interior ones, ones in the clamped band and ones the describer drops.
func TestInertDescribeSplit(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(0x5B11D)
	for _, radius := range []int{6, 15} {
		e := NewExtractor(ORBConfig{PatchRadius: radius, PatternSeed: 0x08b, AngleBins: 30})
		g := noiseImage(rng, 48, 40)
		var kps []KeyPoint
		for i := 0; i < 10; i++ {
			kps = append(kps, KeyPoint{X: rng.Intn(g.W), Y: rng.Intn(g.H)})
		}
		kernel := func(s probe.Sink) string {
			outKps, descs := e.Describe(g, kps, s)
			return fmt.Sprint(outKps, descs)
		}
		// Units: the key-point count, then one per key point, each
		// starting at the Idx that loads it.
		keyPoints := func(taps []faulttest.Tap) [][2]int {
			units := [][2]int{{0, 1}}
			for i, tp := range taps {
				if tp.Kind == 'I' {
					units[len(units)-1][1] = i
					units = append(units, [2]int{i, len(taps)})
				}
			}
			return units
		}
		if n := faulttest.CheckUnitSplit(t, fmt.Sprintf("radius %d", radius), kernel, keyPoints); n == 0 {
			t.Fatalf("radius %d: no split case ran", radius)
		}
	}
}
