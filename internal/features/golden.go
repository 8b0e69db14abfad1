package features

import (
	"math/bits"
	"sort"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
)

// Golden is one frame's feature stage as the golden run computed it:
// the raw FAST candidates of every detection row, stored compactly (a
// bitmap of the candidate centres plus their scores as uint16, in scan
// order), and the described key points with their descriptors. A
// campaign trial detecting the same frame under a *fault.Machine takes
// it for every unit that cannot reach the armed site: inert FAST rows
// copy their candidates, and inert key points found in the golden
// description copy its angle and descriptor. A Golden is immutable once
// captured and safe to share across trials.
type Golden struct {
	// words is the bitmap's 64-bit words per detection row: bit b of
	// mask[r*words+i] marks centre border+64i+b of detection row r
	// (image row border+r) as a candidate.
	words int
	mask  []uint64
	// score holds the candidates' scores in scan order: row by row, by
	// ascending x.
	score []uint16
	// kps and descs are the frame's described key points, sorted by
	// (Y, X) as detection leaves them. They alias the golden run's own
	// output.
	kps   []KeyPoint
	descs []Descriptor
}

// Detect is one frame's feature stage, DetectFAST then Describe, with
// golden replay: under a *fault.Machine, the FAST rows and key points
// that cannot reach the armed site take gd's results instead of being
// recomputed. gd must be the Capture of this configuration on these
// pixels; nil detects from scratch.
func (e *Extractor) Detect(g *imgproc.Gray, cfg FASTConfig, gd *Golden, s probe.Sink) ([]KeyPoint, []Descriptor) {
	kps := detectFASTSink(g, cfg, gd, nil, s)
	return e.describeSink(g, kps, gd, s)
}

// Capture is Detect without replay that also returns the run's Golden,
// for later trials on the same frame to replay. It costs the detection
// one compaction of the raw candidates. A frame too small to detect in
// captures nothing (a nil Golden).
func (e *Extractor) Capture(g *imgproc.Gray, cfg FASTConfig, s probe.Sink) ([]KeyPoint, []Descriptor, *Golden) {
	gd := new(Golden)
	kps, descs := e.describeSink(g, detectFASTSink(g, cfg, nil, gd, s), nil, s)
	if gd.mask == nil {
		return kps, descs, nil
	}
	gd.kps, gd.descs = kps, descs
	return kps, descs, gd
}

// record stores raw, the scan-order candidates of rows detection rows
// of cols centres each, the first centre at (border, border).
func (gd *Golden) record(raw []KeyPoint, border, rows, cols int) {
	gd.words = (cols + 63) / 64
	gd.mask = make([]uint64, rows*gd.words)
	gd.score = make([]uint16, len(raw))
	for i, kp := range raw {
		c := kp.X - border
		gd.mask[(kp.Y-border)*gd.words+c/64] |= 1 << (c % 64)
		gd.score[i] = uint16(kp.Score)
	}
}

// replayRows appends the golden candidates of the k detection rows
// from image row y to raw, entering their scores for non-maximum
// suppression when scores is non-nil, and returns the extended list
// and the candidate count.
func (gd *Golden) replayRows(raw []KeyPoint, scores *imgproc.Gray, y, k, border int) ([]KeyPoint, uint64) {
	lo := (y - border) * gd.words
	n := 0
	for _, w := range gd.mask[:lo] {
		n += bits.OnesCount64(w)
	}
	first := n
	for i, w := range gd.mask[lo : lo+k*gd.words] {
		yy := y + i/gd.words
		x0 := border + i%gd.words*64
		for ; w != 0; w &= w - 1 {
			x, score := x0+bits.TrailingZeros64(w), int(gd.score[n])
			n++
			if scores != nil {
				scores.Pix[yy*scores.W+x] = uint8(min(score, 255))
			}
			raw = append(raw, KeyPoint{X: x, Y: yy, Score: score})
		}
	}
	return raw, uint64(n - first)
}

// described returns kp oriented and described as the golden run did,
// or false when gd is nil or its description has no key point at kp's
// (X, Y). kp keeps its own score.
func (gd *Golden) described(kp KeyPoint) (KeyPoint, Descriptor, bool) {
	if gd == nil {
		return kp, Descriptor{}, false
	}
	j := sort.Search(len(gd.kps), func(j int) bool {
		p := gd.kps[j]
		return p.Y > kp.Y || p.Y == kp.Y && p.X >= kp.X
	})
	if j == len(gd.kps) || gd.kps[j].Y != kp.Y || gd.kps[j].X != kp.X {
		return kp, Descriptor{}, false
	}
	kp.Angle = gd.kps[j].Angle
	return kp, gd.descs[j], true
}

// fastRowsSpan is the tap footprint of instrumented FAST rows over
// pixels centres, cands of which score positive: two Idx and one Pix
// per centre and one Cnt per positive score, all in RFASTDetect.
// fastRowsSpan(cols, cols) bounds any one row of cols centres.
func fastRowsSpan(pixels, cands uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RFASTDetect] = 3*pixels + cands
	tc.GPR = tc.RegionGPR[probe.RFASTDetect]
	tc.Steps = tc.GPR
	return tc
}

// advanceFASTRows accounts FAST rows of pixels centres and cands
// candidates that took golden results: fastRowsSpan's taps plus the op
// counts of the instrumented rows (one OpInt per tap, one OpBranch per
// centre, 16 OpLoad per candidate).
func advanceFASTRows(m *fault.Machine, pixels, cands uint64) {
	m.AdvanceTaps(fastRowsSpan(pixels, cands))
	m.OpsIn(probe.RFASTDetect, probe.OpInt, 3*pixels+cands)
	m.OpsIn(probe.RFASTDetect, probe.OpBranch, pixels)
	m.OpsIn(probe.RFASTDetect, probe.OpLoad, 16*cands)
}
