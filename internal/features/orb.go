package features

import (
	"math"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// DescriptorWords is the number of 64-bit words per ORB descriptor
// (256 bits, as in the original rBRIEF).
const DescriptorWords = 4

// DescriptorBits is the descriptor length in bits.
const DescriptorBits = DescriptorWords * 64

// Descriptor is a 256-bit binary feature descriptor.
type Descriptor [DescriptorWords]uint64

// HammingDist returns the Hamming distance between two descriptors,
// accumulating through sink taps (the accumulator and the descriptor
// words are GPR state in the original binary): DescriptorWords Word
// taps and one Cnt. The matcher calls it with its own concrete sink
// type so the per-pair inner loop never boxes the sink into an
// interface; pass probe.Nop{} for an uninstrumented distance.
func HammingDist[S probe.Sink](d, o Descriptor, m S) int {
	dist := 0
	for i := 0; i < DescriptorWords; i++ {
		x := m.Word(d[i]) ^ o[i]
		dist += onesCount64(x)
	}
	return m.Cnt(dist)
}

// onesCount64 is a branch-free popcount (math/bits is stdlib, but an
// explicit implementation keeps the op accounting story simple and
// mirrors the scalar code the paper's binary runs).
func onesCount64(x uint64) int {
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}

// Pattern is the BRIEF point-pair sampling pattern. ORB uses a fixed
// learned pattern; we generate a deterministic pseudo-random pattern
// (isotropic Gaussian around the patch center, as in the original
// BRIEF paper) from a fixed seed so every run of the reproduction uses
// identical descriptors.
type Pattern struct {
	Radius int
	pairs  [DescriptorBits][4]int8 // x1, y1, x2, y2
}

// NewPattern builds a sampling pattern for the given patch radius.
func NewPattern(radius int, seed uint64) *Pattern {
	if radius < 2 {
		radius = 2
	}
	if radius > 127 {
		radius = 127
	}
	p := &Pattern{Radius: radius}
	rng := stats.NewRNG(seed)
	sigma := float64(radius) / 2
	sample := func() int8 {
		for {
			v := rng.NormFloat64() * sigma
			if v > -float64(radius) && v < float64(radius) {
				return int8(math.Round(v))
			}
		}
	}
	for i := range p.pairs {
		p.pairs[i] = [4]int8{sample(), sample(), sample(), sample()}
	}
	return p
}

// ORBConfig parameterizes descriptor extraction.
type ORBConfig struct {
	// PatchRadius is the half-size of the square patch used for
	// orientation and sampling (ORB uses 15 → 31x31 patches).
	PatchRadius int
	// PatternSeed seeds the deterministic BRIEF pattern.
	PatternSeed uint64
	// AngleBins quantizes the steering rotation (ORB uses 30 bins of
	// 12 degrees).
	AngleBins int
}

// Extractor computes oriented BRIEF descriptors with a shared pattern.
// All fields — including the precomputed fast-path tables below — are
// immutable after NewExtractor, so one Extractor is safe to share
// across concurrent campaign workers. Without the tables an Extractor
// runs the reference loops (masked AtClamped orientation, live pattern
// rotation), which is what the package tests compare the tables with.
type Extractor struct {
	cfg     ORBConfig
	pattern *Pattern
	// binLo/rot/rotSin/rotCos cache the rotated sampling pattern for
	// every quantized steering bin Describe can produce: rot[bin-binLo]
	// holds the 256 pre-rotated point pairs computed from exactly the
	// Sincos values Describe would compute for that bin (recorded in
	// rotSin/rotCos so a fault-corrupted sin/cos can be detected and
	// sent down the live-rotation reference path).
	binLo  int
	rot    [][DescriptorBits][4]int16
	rotSin []float64
	rotCos []float64
	// rotMax[bi] is the largest |offset| in rot[bi]: a key point at
	// least that far from every border samples without clamping, so
	// raw indexing reads exactly what AtClamped would.
	rotMax []int
	// dxLim[dy+r] is the largest |dx| with dx^2+dy^2 <= r^2 — the
	// orientation loop's circle mask as per-row bounds.
	dxLim []int
}

// NewExtractor builds an extractor for the given configuration.
func NewExtractor(cfg ORBConfig) *Extractor {
	if cfg.PatchRadius <= 0 {
		cfg.PatchRadius = 15
	}
	if cfg.AngleBins <= 0 {
		cfg.AngleBins = 30
	}
	e := &Extractor{cfg: cfg, pattern: NewPattern(cfg.PatchRadius, cfg.PatternSeed)}

	// Steering bins: bin = Round(angle/binWidth) with angle in [-pi,
	// pi], so |bin| <= AngleBins/2 + 1 covers every reachable value
	// (the +1 absorbs the odd-AngleBins half-bin at the range ends).
	binWidth := 2 * math.Pi / float64(cfg.AngleBins)
	e.binLo = -(cfg.AngleBins/2 + 1)
	nbins := cfg.AngleBins + 3
	e.rot = make([][DescriptorBits][4]int16, nbins)
	e.rotSin = make([]float64, nbins)
	e.rotCos = make([]float64, nbins)
	e.rotMax = make([]int, nbins)
	for bi := 0; bi < nbins; bi++ {
		// Identical expression to Describe's quantization: a float bin
		// times binWidth (float64(int) of a small integer is exact).
		qa := float64(e.binLo+bi) * binWidth
		sin, cos := math.Sincos(qa)
		e.rotSin[bi], e.rotCos[bi] = sin, cos
		for b := range e.pattern.pairs {
			pr := e.pattern.pairs[b]
			x1, y1 := rotatePoint(int(pr[0]), int(pr[1]), sin, cos)
			x2, y2 := rotatePoint(int(pr[2]), int(pr[3]), sin, cos)
			e.rot[bi][b] = [4]int16{int16(x1), int16(y1), int16(x2), int16(y2)}
			for _, v := range [4]int{x1, y1, x2, y2} {
				if v < 0 {
					v = -v
				}
				if v > e.rotMax[bi] {
					e.rotMax[bi] = v
				}
			}
		}
	}

	r := cfg.PatchRadius
	e.dxLim = make([]int, 2*r+1)
	for dy := -r; dy <= r; dy++ {
		k := r*r - dy*dy
		lim := int(math.Sqrt(float64(k)))
		for lim*lim > k {
			lim--
		}
		for (lim+1)*(lim+1) <= k {
			lim++
		}
		e.dxLim[dy+r] = lim
	}
	return e
}

// orientation computes the intensity-centroid angle of the patch
// around (x, y): atan2(m01, m10) over the circular patch, as in ORB.
// Its two moments are FPR taps.
func orientation[S probe.Sink](e *Extractor, g *imgproc.Gray, x, y int, m S) float64 {
	r := e.cfg.PatchRadius
	var m01, m10 float64
	if e.dxLim != nil && x >= r && y >= r && x < g.W-r && y < g.H-r {
		// Patch fully inside the image: AtClamped never clamps, so raw
		// row indexing reads the same bytes, and the precomputed circle
		// half-widths visit exactly the dx the masked loop accepts, in
		// the same order — the moment sums are bit-identical.
		for dy := -r; dy <= r; dy++ {
			yy := y + dy
			m.Ops(probe.OpLoad, uint64(2*r+1))
			m.Ops(probe.OpFloat, uint64(2*(2*r+1)))
			lim := e.dxLim[dy+r]
			row := g.Pix[yy*g.W+x-lim : yy*g.W+x+lim+1]
			fdy := float64(dy)
			for dx := -lim; dx <= lim; dx++ {
				v := float64(row[dx+lim])
				m10 += float64(dx) * v
				m01 += fdy * v
			}
		}
	} else {
		r2 := r * r
		for dy := -r; dy <= r; dy++ {
			yy := y + dy
			m.Ops(probe.OpLoad, uint64(2*r+1))
			m.Ops(probe.OpFloat, uint64(2*(2*r+1)))
			for dx := -r; dx <= r; dx++ {
				if dx*dx+dy*dy > r2 {
					continue
				}
				v := float64(g.AtClamped(x+dx, yy))
				m10 += float64(dx) * v
				m01 += float64(dy) * v
			}
		}
	}
	// The moments are floating-point register values.
	m01 = m.F64(m01)
	m10 = m.F64(m10)
	a := math.Atan2(m01, m10)
	if math.IsNaN(a) {
		a = 0
	}
	return a
}

// Describe computes ORB descriptors for the key points, filling in
// their Angle fields. Key points too close to the border for the
// patch are dropped; the returned slices are parallel. s is any
// probe.Sink; pass probe.Nop{} for an uninstrumented run (nil is
// normalized).
func (e *Extractor) Describe(g *imgproc.Gray, kps []KeyPoint, s probe.Sink) ([]KeyPoint, []Descriptor) {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return describe(e, g, kps, probe.Nop{})
	}
	if m, ok := s.(*fault.Machine); ok {
		return describeMachine(e, g, kps, m)
	}
	return describe(e, g, kps, s)
}

func describe[S probe.Sink](e *Extractor, g *imgproc.Gray, kps []KeyPoint, m S) ([]KeyPoint, []Descriptor) {
	defer m.Enter(probe.RORBDescribe)()
	outKps := make([]KeyPoint, 0, len(kps))
	outDescs := make([]Descriptor, 0, len(kps))
	n := m.Cnt(len(kps))
	for i := 0; i < n; i++ {
		if kp, d, ok := describeKeyPoint(e, g, kps[m.Idx(i)], m); ok {
			outKps = append(outKps, kp)
			outDescs = append(outDescs, d)
		}
	}
	return outKps, outDescs
}

// keyPointsSpan is the tap footprint of n key points of which in lie
// inside the patch border, all in RORBDescribe: one Idx per key point
// and, per in-border one, the two orientation moments, the steering
// sin and cos (four F64) and one Pix per descriptor bit.
// keyPointsSpan(1, 1) bounds any one key point.
func keyPointsSpan(n, in uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RORBDescribe] = n + DescriptorBits*in
	tc.GPR = tc.RegionGPR[probe.RORBDescribe]
	tc.RegionFPR[probe.RORBDescribe] = 4 * in
	tc.FPR = tc.RegionFPR[probe.RORBDescribe]
	tc.Steps = tc.GPR + tc.FPR
	return tc
}

// describeMachine is describe under an injecting machine, split per key
// point: Machine.InertUnits says how many of the next key points cannot
// reach the armed site; those run describeKeyPoint on the Nop sink and
// are accounted with their exact footprint (keyPointsSpan plus the op
// counts of the instrumented body), the next one runs instrumented, and
// the loop asks again. A corrupted key-point count keeps the whole loop
// instrumented, as in describe.
func describeMachine(e *Extractor, g *imgproc.Gray, kps []KeyPoint, m *fault.Machine) ([]KeyPoint, []Descriptor) {
	defer m.Enter(probe.RORBDescribe)()
	outKps := make([]KeyPoint, 0, len(kps))
	outDescs := make([]Descriptor, 0, len(kps))
	n := m.Cnt(len(kps))
	unit := keyPointsSpan(1, 1)
	side := uint64(2*e.cfg.PatchRadius + 1)
	for i := 0; i < n; {
		if n == len(kps) {
			if k := m.InertUnits(unit, n-i); k > 0 {
				in := uint64(0)
				for _, p := range kps[i : i+k] {
					if kp, d, ok := describeKeyPoint(e, g, p, probe.Nop{}); ok {
						outKps = append(outKps, kp)
						outDescs = append(outDescs, d)
						in++
					}
				}
				m.AdvanceTaps(keyPointsSpan(uint64(k), in))
				m.OpsIn(probe.RORBDescribe, probe.OpInt, uint64(k)+2*DescriptorBits*in)
				m.OpsIn(probe.RORBDescribe, probe.OpLoad, (side*side+2*DescriptorBits)*in)
				m.OpsIn(probe.RORBDescribe, probe.OpFloat, (2*side*side+4)*in)
				i += k
				continue
			}
		}
		if kp, d, ok := describeKeyPoint(e, g, kps[m.Idx(i)], m); ok {
			outKps = append(outKps, kp)
			outDescs = append(outDescs, d)
		}
		i++
	}
	return outKps, outDescs
}

// describeKeyPoint is the instrumented body for one key point, the one
// copy describe and describeMachine share: it orients and describes kp,
// or reports false for a key point too close to the border for the
// patch (which issues no tap).
func describeKeyPoint[S probe.Sink](e *Extractor, g *imgproc.Gray, kp KeyPoint, m S) (KeyPoint, Descriptor, bool) {
	r := e.cfg.PatchRadius
	if kp.X < r || kp.Y < r || kp.X >= g.W-r || kp.Y >= g.H-r {
		return kp, Descriptor{}, false
	}
	angle := orientation(e, g, kp.X, kp.Y, m)
	// Quantize the steering angle like ORB (12-degree bins) so the
	// rotated pattern can be reused across features.
	binWidth := 2 * math.Pi / float64(e.cfg.AngleBins)
	bin := math.Round(angle / binWidth)
	qa := bin * binWidth
	sin, cos := math.Sincos(qa)
	sin = m.F64(sin)
	cos = m.F64(cos)

	// The pre-rotated pattern for this bin applies only when the
	// tapped sin/cos still equal the values it was built from; a
	// corrupted (or out-of-range, e.g. NaN-angled) value rotates
	// live, exactly as the reference path always does.
	var rot *[DescriptorBits][4]int16
	margin := 0
	if bi := int(bin) - e.binLo; bi >= 0 && bi < len(e.rot) &&
		sin == e.rotSin[bi] && cos == e.rotCos[bi] {
		rot = &e.rot[bi]
		margin = e.rotMax[bi]
	}

	var d Descriptor
	if rot != nil && kp.X >= margin && kp.Y >= margin &&
		kp.X < g.W-margin && kp.Y < g.H-margin {
		// Every sample stays inside the image, so AtClamped never
		// clamps and raw indexing reads the same bytes.
		base := kp.Y*g.W + kp.X
		for b := 0; b < DescriptorBits; b++ {
			rp := &rot[b]
			p1 := m.Pix(g.Pix[base+int(rp[1])*g.W+int(rp[0])])
			p2 := g.Pix[base+int(rp[3])*g.W+int(rp[2])]
			if p1 < p2 {
				d[b>>6] |= 1 << uint(b&63)
			}
		}
	} else if rot != nil {
		for b := 0; b < DescriptorBits; b++ {
			rp := &rot[b]
			p1 := m.Pix(g.AtClamped(kp.X+int(rp[0]), kp.Y+int(rp[1])))
			p2 := g.AtClamped(kp.X+int(rp[2]), kp.Y+int(rp[3]))
			if p1 < p2 {
				d[b>>6] |= 1 << uint(b&63)
			}
		}
	} else {
		for b := 0; b < DescriptorBits; b++ {
			pr := e.pattern.pairs[b]
			x1, y1 := rotatePoint(int(pr[0]), int(pr[1]), sin, cos)
			x2, y2 := rotatePoint(int(pr[2]), int(pr[3]), sin, cos)
			p1 := m.Pix(g.AtClamped(kp.X+x1, kp.Y+y1))
			p2 := g.AtClamped(kp.X+x2, kp.Y+y2)
			if p1 < p2 {
				d[b>>6] |= 1 << uint(b&63)
			}
		}
	}
	m.Ops(probe.OpLoad, DescriptorBits*2)
	m.Ops(probe.OpInt, DescriptorBits)

	kp.Angle = angle
	return kp, d, true
}

// rotatePoint rotates the integer offset (x, y) by the angle whose
// sine/cosine are given, rounding to the nearest pixel.
func rotatePoint(x, y int, sin, cos float64) (int, int) {
	fx := float64(x)
	fy := float64(y)
	return int(math.Round(cos*fx - sin*fy)), int(math.Round(sin*fx + cos*fy))
}
