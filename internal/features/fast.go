// Package features implements the key-point pipeline of the VS
// algorithm (§III-A): FAST corner detection (Rosten & Drummond) and
// ORB descriptors (Rublee et al.: intensity-centroid orientation plus
// rotation-steered BRIEF), the exact detector/descriptor pair the
// paper's OpenCV pipeline uses.
//
// All pixel and index traffic flows through probe.Sink taps so the
// AFI reproduction can corrupt the detector the same way a register
// bit flip would, while clean runs instantiate the kernels with the
// no-op sink and pay nothing.
package features

import (
	"sort"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
)

// KeyPoint is a detected corner with its FAST score and ORB
// orientation.
type KeyPoint struct {
	X, Y  int
	Score int     // FAST corner score (sum of absolute threshold excess)
	Angle float64 // intensity-centroid orientation, radians
}

// Pt returns the key point location as a float pair for geometry code.
func (k KeyPoint) Pt() (float64, float64) { return float64(k.X), float64(k.Y) }

// circleOffsets16 is the Bresenham circle of radius 3 used by FAST-9,
// in clockwise order starting from (0,-3).
var circleOffsets16 = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// FASTConfig parameterizes the detector.
type FASTConfig struct {
	// Threshold is the intensity difference needed for a circle pixel
	// to count as brighter/darker than the center (OpenCV default 20).
	Threshold int
	// Arc is the contiguous arc length required (9 for FAST-9).
	Arc int
	// NonMaxSuppress enables 3x3 non-maximum suppression on scores.
	NonMaxSuppress bool
	// MaxFeatures caps the number of returned key points, keeping the
	// strongest (0 = unlimited).
	MaxFeatures int
	// Border excludes a margin from detection so descriptor patches
	// stay inside the image.
	Border int
}

// DefaultFASTConfig mirrors the pipeline defaults used throughout the
// reproduction.
func DefaultFASTConfig() FASTConfig {
	return FASTConfig{
		Threshold:      15,
		Arc:            9,
		NonMaxSuppress: true,
		MaxFeatures:    500,
		Border:         16,
	}
}

// detectFASTSink runs detectFAST on the kernel instantiation for s.
func detectFASTSink(g *imgproc.Gray, cfg FASTConfig, gd, rec *Golden, s probe.Sink) []KeyPoint {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return detectFAST(g, cfg, gd, rec, probe.Nop{})
	}
	return detectFAST(g, cfg, gd, rec, s)
}

// detectFAST is the detector. gd, when non-nil, is replayed: a
// *fault.Machine sink (itself, not a wrapper) whose tapped dimensions
// are the real ones splits the scan per row, Machine.InertUnits saying
// how many of the next rows cannot reach the armed site; those copy
// gd's candidates and are accounted with their exact footprint
// (advanceFASTRows), the next row runs instrumented, and the loop asks
// again. rec, when non-nil, receives the scan's raw candidates (the
// golden capture).
func detectFAST[S probe.Sink](g *imgproc.Gray, cfg FASTConfig, gd, rec *Golden, m S) []KeyPoint {
	defer m.Enter(probe.RFASTDetect)()
	if cfg.Threshold <= 0 {
		cfg.Threshold = 20
	}
	if cfg.Arc <= 0 || cfg.Arc > 16 {
		cfg.Arc = 9
	}
	border := cfg.Border
	if border < 3 {
		border = 3
	}
	w := m.Cnt(g.W)
	h := m.Cnt(g.H)
	if w != g.W || h != g.H {
		// A corrupted dimension register: accesses below will use the
		// corrupted bound and fault naturally, as on real hardware.
	}
	if w-border <= border || h-border <= border {
		return nil
	}

	// scores is indexed by the uncorrupted geometry; a corrupted index
	// from a tap panics inside At(), which the campaign classifies as
	// a crash — the segmentation-fault analogue.
	var scores *imgproc.Gray
	if cfg.NonMaxSuppress {
		scores = getScores(g.W, g.H)
		defer putScores(scores)
	}

	// The direct-index scan is valid only while every coordinate that
	// reaches pixel memory is provably inside the real image: the
	// tapped dimensions must match reality (checked once here) and the
	// tapped center coordinates must match the loop variables (checked
	// per pixel below). Any corrupted value falls back to the
	// reference path, whose At() calls reproduce the original
	// bounds-check / crash behavior exactly.
	fast := w == g.W && h == g.H
	var circleDeltas [16]int
	if fast {
		for i, off := range circleOffsets16 {
			circleDeltas[i] = off[1]*g.W + off[0]
		}
	}

	raw := getKeyPoints()
	defer func() { putKeyPoints(raw) }()
	fm, _ := any(m).(*fault.Machine)
	cols := w - 2*border
	unit := fastRowsSpan(uint64(cols), uint64(cols))
	for y := border; y < h-border; {
		if fm != nil && gd != nil && fast {
			if k := fm.InertUnits(unit, h-border-y); k > 0 {
				var cands uint64
				raw, cands = gd.replayRows(raw, scores, y, k, border)
				advanceFASTRows(fm, uint64(k)*uint64(cols), cands)
				y += k
				continue
			}
		}
		m.Ops(probe.OpBranch, uint64(cols))
		rowBase := y * g.W
		for x := border; x < w-border; x++ {
			xt := m.Idx(x)
			yt := m.Idx(y)
			direct := fast && xt == x && yt == y
			var center int
			if direct {
				center = int(m.Pix(g.Pix[rowBase+x]))
			} else {
				center = int(m.Pix(g.At(xt, yt)))
			}
			lo := center - cfg.Threshold
			hi := center + cfg.Threshold

			// Fast rejection: for arc >= 9 at least one of each
			// opposing cardinal pair must be outside the band.
			var p0, p8 int
			if direct {
				p0 = int(g.Pix[rowBase-3*g.W+x])
				p8 = int(g.Pix[rowBase+3*g.W+x])
			} else {
				p0 = int(g.At(x, y-3))
				p8 = int(g.At(x, y+3))
			}
			if cfg.Arc >= 9 && !(p0 > hi || p0 < lo || p8 > hi || p8 < lo) {
				var p4, p12 int
				if direct {
					p4 = int(g.Pix[rowBase+x+3])
					p12 = int(g.Pix[rowBase+x-3])
				} else {
					p4 = int(g.At(x+3, y))
					p12 = int(g.At(x-3, y))
				}
				if !(p4 > hi || p4 < lo || p12 > hi || p12 < lo) {
					continue
				}
			}

			var score int
			if direct {
				score = fastScoreDirect(g, rowBase+x, &circleDeltas, lo, hi, cfg.Arc, m)
			} else {
				score = fastScore(g, x, y, lo, hi, cfg.Arc, m)
			}
			if score <= 0 {
				continue
			}
			m.Ops(probe.OpLoad, 16)
			if scores != nil {
				s := score
				if s > 255 {
					s = 255
				}
				scores.Set(x, y, uint8(s))
			}
			raw = append(raw, KeyPoint{X: x, Y: y, Score: score})
		}
		y++
	}
	if rec != nil && fast {
		rec.record(raw, border, h-2*border, cols)
	}

	kps := raw
	if cfg.NonMaxSuppress {
		kps = kps[:0]
		for _, kp := range raw {
			if isLocalMax(scores, kp.X, kp.Y) {
				kps = append(kps, kp)
			}
		}
	}

	if cfg.MaxFeatures > 0 && len(kps) > cfg.MaxFeatures {
		sort.Slice(kps, func(i, j int) bool {
			if kps[i].Score != kps[j].Score {
				return kps[i].Score > kps[j].Score
			}
			if kps[i].Y != kps[j].Y {
				return kps[i].Y < kps[j].Y
			}
			return kps[i].X < kps[j].X
		})
		kps = kps[:cfg.MaxFeatures]
	}
	// Deterministic order for downstream stages.
	sort.Slice(kps, func(i, j int) bool {
		if kps[i].Y != kps[j].Y {
			return kps[i].Y < kps[j].Y
		}
		return kps[i].X < kps[j].X
	})
	// kps aliases the pooled accumulator; hand the caller an exact-size
	// copy so the (much larger) candidate storage can be recycled.
	if len(kps) == 0 {
		return nil
	}
	out := make([]KeyPoint, len(kps))
	copy(out, kps)
	return out
}

// fastScore checks the contiguous-arc criterion at (x, y) and returns
// a corner score (0 = not a corner). The score is the larger of the
// bright-arc and dark-arc total threshold excess, the same measure
// OpenCV uses for non-max suppression.
func fastScore[S probe.Sink](g *imgproc.Gray, x, y, lo, hi, arc int, m S) int {
	var bright, dark [16]bool
	var diffs [16]int
	var brightMask, darkMask uint32
	for i, off := range circleOffsets16 {
		v := int(g.At(x+off[0], y+off[1]))
		diffs[i] = v
		if v > hi {
			bright[i] = true
			brightMask |= 1 << uint(i)
		}
		if v < lo {
			dark[i] = true
			darkMask |= 1 << uint(i)
		}
	}
	return arcScore(&diffs, &bright, &dark, brightMask, darkMask, lo, hi, arc, m)
}

// fastScoreDirect is fastScore reading the circle through precomputed
// linear offsets from the center's raw index — valid only when the
// caller has proven the center (and so the whole radius-3 circle,
// border >= 3) lies inside the image, in which case every read returns
// exactly what At would.
func fastScoreDirect[S probe.Sink](g *imgproc.Gray, base int, deltas *[16]int, lo, hi, arc int, m S) int {
	var bright, dark [16]bool
	var diffs [16]int
	var brightMask, darkMask uint32
	for i, d := range deltas {
		v := int(g.Pix[base+d])
		diffs[i] = v
		if v > hi {
			bright[i] = true
			brightMask |= 1 << uint(i)
		}
		if v < lo {
			dark[i] = true
			darkMask |= 1 << uint(i)
		}
	}
	return arcScore(&diffs, &bright, &dark, brightMask, darkMask, lo, hi, arc, m)
}

// hasArcRun reports whether the 16-bit circle mask contains a run of
// at least arc consecutive set bits, counting wrap-around (the doubled
// 32-bit mask makes wrapping runs contiguous). It is the pure
// predicate behind arcScore's run counter: the scan sets a positive
// score iff such a run exists.
func hasArcRun(mask uint32, arc int) bool {
	m := mask | mask<<16
	for i := 1; i < arc && m != 0; i++ {
		m &= m >> 1
	}
	return m != 0
}

// arcScore runs the doubled-circle contiguous-arc scan shared by both
// read paths.
func arcScore[S probe.Sink](diffs *[16]int, bright, dark *[16]bool, brightMask, darkMask uint32, lo, hi, arc int, m S) int {
	center := (lo + hi) / 2
	th := (hi - lo) / 2

	best := 0
	// Check both polarities by scanning the doubled circle for a run
	// of length >= arc. A polarity whose mask provably holds no such
	// run is skipped: the scan would leave best untouched (every
	// flagged pixel contributes sum only once run >= arc), so the
	// result — and the single score tap below — are unchanged.
	for polarity := 0; polarity < 2; polarity++ {
		flags := bright
		mask := brightMask
		if polarity == 1 {
			flags = dark
			mask = darkMask
		}
		if !hasArcRun(mask, arc) {
			continue
		}
		run := 0
		sum := 0
		for i := 0; i < 32; i++ {
			idx := i & 15
			if flags[idx] {
				run++
				d := diffs[idx] - center
				if d < 0 {
					d = -d
				}
				sum += d - th
				if run >= arc && sum > best {
					best = sum
				}
			} else {
				run = 0
				sum = 0
			}
			if run >= 16 {
				break
			}
		}
	}
	if best > 0 {
		// Tap the score: it is an integer register value that decides
		// downstream control flow (key point selection).
		best = m.Cnt(best)
		if best < 0 {
			best = 0
		}
	}
	return best
}

// isLocalMax reports whether (x, y) has the strictly greatest score in
// its 3x3 neighborhood (ties broken toward the earlier raster pixel).
func isLocalMax(scores *imgproc.Gray, x, y int) bool {
	s := scores.At(x, y)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			n := scores.AtClamped(x+dx, y+dy)
			if n > s {
				return false
			}
			if n == s && (dy < 0 || (dy == 0 && dx < 0)) {
				return false
			}
		}
	}
	return true
}
