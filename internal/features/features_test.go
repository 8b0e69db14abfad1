package features

import (
	"math"
	"testing"
	"testing/quick"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	vssim "vsresil/internal/imgproc"
	"vsresil/internal/probe"
)

// cornerGrid returns a dark image with a grid of isolated bright
// squares. Square corners are L-junctions, which FAST-9 detects (an
// ideal checkerboard X-corner is a saddle point with a maximum
// contiguous arc of 8 and is correctly rejected by FAST-9).
func cornerGrid(w, h, cell int) *vssim.Gray {
	g := vssim.NewGray(w, h)
	g.Fill(30)
	margin := cell / 4
	if margin < 2 {
		margin = 2
	}
	for by := 0; by < h/cell; by++ {
		for bx := 0; bx < w/cell; bx++ {
			for y := by*cell + margin; y < (by+1)*cell-margin && y < h; y++ {
				for x := bx*cell + margin; x < (bx+1)*cell-margin && x < w; x++ {
					g.Set(x, y, 220)
				}
			}
		}
	}
	return g
}

func TestDetectFASTFlatImage(t *testing.T) {
	g := vssim.NewGray(64, 64)
	g.Fill(128)
	kps := DetectFAST(g, DefaultFASTConfig(), nil)
	if len(kps) != 0 {
		t.Errorf("flat image produced %d corners", len(kps))
	}
}

func TestDetectFASTFindsCheckerboardCorners(t *testing.T) {
	g := cornerGrid(96, 96, 16)
	cfg := DefaultFASTConfig()
	cfg.Border = 8
	kps := DetectFAST(g, cfg, nil)
	if len(kps) == 0 {
		t.Fatal("no corners on block grid")
	}
	// Every detection must sit near a block corner: with cell=16 and
	// margin=4 the squares span [4,12) in each cell, so corners are at
	// offsets ~4 and ~11.
	for _, kp := range kps {
		dx := kp.X % 16
		dy := kp.Y % 16
		nearX := (dx >= 1 && dx <= 7) || (dx >= 8 && dx <= 14)
		nearY := (dy >= 1 && dy <= 7) || (dy >= 8 && dy <= 14)
		if !nearX || !nearY {
			t.Errorf("corner at (%d,%d) not near a block corner", kp.X, kp.Y)
		}
	}
}

func TestDetectFASTRespectsBorder(t *testing.T) {
	g := cornerGrid(64, 64, 8)
	cfg := DefaultFASTConfig()
	cfg.Border = 12
	for _, kp := range DetectFAST(g, cfg, nil) {
		if kp.X < 12 || kp.Y < 12 || kp.X >= 52 || kp.Y >= 52 {
			t.Errorf("corner (%d,%d) inside border margin", kp.X, kp.Y)
		}
	}
}

func TestDetectFASTMaxFeatures(t *testing.T) {
	g := cornerGrid(128, 128, 8)
	cfg := DefaultFASTConfig()
	cfg.Border = 8
	cfg.MaxFeatures = 10
	kps := DetectFAST(g, cfg, nil)
	if len(kps) > 10 {
		t.Errorf("MaxFeatures=10 returned %d", len(kps))
	}
}

func TestDetectFASTDeterministic(t *testing.T) {
	g := cornerGrid(96, 96, 12)
	cfg := DefaultFASTConfig()
	a := DetectFAST(g, cfg, nil)
	b := DetectFAST(g, cfg, fault.New())
	if len(a) != len(b) {
		t.Fatalf("instrumented run found %d corners, bare run %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corner %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDetectFASTTinyImage(t *testing.T) {
	g := vssim.NewGray(8, 8)
	if kps := DetectFAST(g, DefaultFASTConfig(), nil); len(kps) != 0 {
		t.Error("tiny image should produce no corners")
	}
}

func TestDetectFASTCountsTaps(t *testing.T) {
	g := cornerGrid(64, 64, 8)
	m := fault.New()
	cfg := DefaultFASTConfig()
	cfg.Border = 8
	DetectFAST(g, cfg, m)
	if m.RegionTaps(fault.GPR, fault.RFASTDetect) == 0 {
		t.Error("detection executed no taps in its region")
	}
}

func TestNonMaxSuppressionReduces(t *testing.T) {
	g := cornerGrid(96, 96, 12)
	cfg := DefaultFASTConfig()
	cfg.Border = 8
	cfg.MaxFeatures = 0
	with := DetectFAST(g, cfg, nil)
	cfg.NonMaxSuppress = false
	without := DetectFAST(g, cfg, nil)
	if len(with) >= len(without) {
		t.Errorf("NMS did not reduce corners: %d vs %d", len(with), len(without))
	}
}

func TestHammingBasics(t *testing.T) {
	var a, b Descriptor
	if d := HammingDist(a, b, probe.Nop{}); d != 0 {
		t.Errorf("identical descriptors: distance %d", d)
	}
	b[0] = 1
	if d := HammingDist(a, b, probe.Nop{}); d != 1 {
		t.Errorf("one bit: distance %d", d)
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	if d := HammingDist(a, b, probe.Nop{}); d != DescriptorBits {
		t.Errorf("all bits: distance %d", d)
	}
}

// Property: Hamming distance is a metric on descriptors (symmetry,
// identity, triangle inequality).
func TestPropertyHammingMetric(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3 uint64) bool {
		a := Descriptor{a0, a1, a2, a3}
		b := Descriptor{b0, b1, b2, b3}
		c := Descriptor{c0, c1, c2, c3}
		dab := HammingDist(a, b, probe.Nop{})
		dba := HammingDist(b, a, probe.Nop{})
		if dab != dba {
			return false
		}
		if HammingDist(a, a, probe.Nop{}) != 0 {
			return false
		}
		dac := HammingDist(a, c, probe.Nop{})
		dcb := HammingDist(c, b, probe.Nop{})
		return dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOnesCount64(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 1}, {3, 2}, {^uint64(0), 64}, {0x8000000000000000, 1},
		{0x5555555555555555, 32},
	}
	for _, tc := range cases {
		if got := onesCount64(tc.x); got != tc.want {
			t.Errorf("onesCount64(%#x) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestNewPatternDeterministic(t *testing.T) {
	a := NewPattern(15, 7)
	b := NewPattern(15, 7)
	if a.pairs != b.pairs {
		t.Error("same seed produced different patterns")
	}
	c := NewPattern(15, 8)
	if a.pairs == c.pairs {
		t.Error("different seeds produced identical patterns")
	}
}

func TestNewPatternWithinRadius(t *testing.T) {
	p := NewPattern(8, 3)
	for _, pr := range p.pairs {
		for _, v := range pr {
			if int(v) < -8 || int(v) > 8 {
				t.Fatalf("pattern offset %d outside radius 8", v)
			}
		}
	}
}

func TestNewPatternClampsRadius(t *testing.T) {
	if p := NewPattern(0, 1); p.Radius < 2 {
		t.Error("radius not clamped up")
	}
	if p := NewPattern(1000, 1); p.Radius > 127 {
		t.Error("radius not clamped down")
	}
}

func TestOrientationGradient(t *testing.T) {
	// Horizontal ramp: centroid lies toward +x, angle ~ 0.
	g := vssim.NewGray(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			g.Set(x, y, uint8(x*4))
		}
	}
	e := NewExtractor(ORBConfig{PatchRadius: 8})
	a := orientation(e, g, 32, 32, probe.Nop{})
	if math.Abs(a) > 0.1 {
		t.Errorf("horizontal ramp angle = %v, want ~0", a)
	}
	// Vertical ramp: angle ~ pi/2.
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			g.Set(x, y, uint8(y*4))
		}
	}
	a = orientation(e, g, 32, 32, probe.Nop{})
	if math.Abs(a-math.Pi/2) > 0.1 {
		t.Errorf("vertical ramp angle = %v, want ~pi/2", a)
	}
}

func TestDescribeDropsBorderPoints(t *testing.T) {
	g := cornerGrid(64, 64, 8)
	e := NewExtractor(ORBConfig{PatchRadius: 10})
	kps := []KeyPoint{{X: 2, Y: 2}, {X: 32, Y: 32}, {X: 62, Y: 62}}
	outKps, descs := e.Describe(g, kps, nil)
	if len(outKps) != 1 || len(descs) != 1 {
		t.Fatalf("Describe kept %d points, want 1", len(outKps))
	}
	if outKps[0].X != 32 {
		t.Errorf("kept wrong point: %+v", outKps[0])
	}
}

func TestDescribeDeterministic(t *testing.T) {
	g := cornerGrid(96, 96, 12)
	cfg := DefaultFASTConfig()
	cfg.Border = 16
	kps := DetectFAST(g, cfg, nil)
	e := NewExtractor(ORBConfig{PatchRadius: 12})
	_, d1 := e.Describe(g, kps, nil)
	_, d2 := e.Describe(g, kps, faulttest.GenericSink{Sink: fault.New()})
	if len(d1) != len(d2) {
		t.Fatalf("lengths differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("descriptor %d differs under instrumentation", i)
		}
	}
}

func TestDescriptorRotationInvariance(t *testing.T) {
	// A descriptor of a pattern and the same pattern rotated 90
	// degrees should be much closer than two random descriptors,
	// thanks to the orientation steering.
	size := 64
	src := vssim.NewGray(size, size)
	// Asymmetric blob pattern around the center.
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := 0
			if (x-40)*(x-40)+(y-32)*(y-32) < 64 {
				v = 200
			}
			if (x-28)*(x-28)+(y-24)*(y-24) < 25 {
				v = 120
			}
			src.Set(x, y, uint8(v))
		}
	}
	// Rotate the image 90 degrees clockwise about the center.
	rot := vssim.NewGray(size, size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			rot.Set(size-1-y, x, src.At(x, y))
		}
	}
	e := NewExtractor(ORBConfig{PatchRadius: 14})
	_, d1 := e.Describe(src, []KeyPoint{{X: 32, Y: 32}}, nil)
	_, d2 := e.Describe(rot, []KeyPoint{{X: 31, Y: 32}}, nil)
	if len(d1) != 1 || len(d2) != 1 {
		t.Fatal("descriptors missing")
	}
	dist := HammingDist(d1[0], d2[0], probe.Nop{})
	if dist > DescriptorBits/3 {
		t.Errorf("rotated descriptor distance %d too large (not rotation-steered?)", dist)
	}
}

func TestKeyPointPt(t *testing.T) {
	kp := KeyPoint{X: 3, Y: 4}
	x, y := kp.Pt()
	if x != 3 || y != 4 {
		t.Errorf("Pt = (%v,%v)", x, y)
	}
}

func TestRotatePoint(t *testing.T) {
	sin, cos := math.Sincos(math.Pi / 2)
	x, y := rotatePoint(1, 0, sin, cos)
	if x != 0 || y != 1 {
		t.Errorf("rotate (1,0) by 90deg = (%d,%d)", x, y)
	}
}

func BenchmarkDetectFAST(b *testing.B) {
	g := cornerGrid(320, 240, 16)
	cfg := DefaultFASTConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectFAST(g, cfg, nil)
	}
}

func BenchmarkDescribe(b *testing.B) {
	g := cornerGrid(320, 240, 16)
	cfg := DefaultFASTConfig()
	kps := DetectFAST(g, cfg, nil)
	e := NewExtractor(ORBConfig{PatchRadius: 15, PatternSeed: 0x08b, AngleBins: 30})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Describe(g, kps, nil)
	}
}

func BenchmarkHamming(b *testing.B) {
	d1 := Descriptor{0xdeadbeef, 0x12345678, 0xabcdef, 0x55aa55aa}
	d2 := Descriptor{0xfeedface, 0x87654321, 0xfedcba, 0xaa55aa55}
	for i := 0; i < b.N; i++ {
		HammingDist(d1, d2, probe.Nop{})
	}
}
