package virat

import (
	"fmt"
	"math"
	"testing"

	"vsresil/internal/features"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
)

func TestGenerateWorldDeterministic(t *testing.T) {
	cfg := WorldConfig{Size: 128, Seed: 7, Buildings: 20, Roads: 3, Blobs: 10}
	a := GenerateWorld(cfg)
	b := GenerateWorld(cfg)
	if !a.Img.Equal(b.Img) {
		t.Error("same config produced different worlds")
	}
	cfg.Seed = 8
	c := GenerateWorld(cfg)
	if a.Img.Equal(c.Img) {
		t.Error("different seeds produced identical worlds")
	}
}

func TestGenerateWorldHasTexture(t *testing.T) {
	w := GenerateWorld(WorldConfig{Size: 256, Seed: 1, Buildings: 40, Roads: 4, Blobs: 20})
	// The world must have contrast (std dev of pixels well above 0).
	mean := w.Img.Mean()
	var variance float64
	for _, v := range w.Img.Pix {
		d := float64(v) - mean
		variance += d * d
	}
	variance /= float64(len(w.Img.Pix))
	if math.Sqrt(variance) < 15 {
		t.Errorf("world too flat: stddev %v", math.Sqrt(variance))
	}
}

func TestWorldProvidesCorners(t *testing.T) {
	w := GenerateWorld(WorldConfig{Size: 256, Seed: 2, Buildings: 60, Roads: 4, Blobs: 20})
	e := features.NewExtractor(features.ORBConfig{PatchRadius: 12, AngleBins: 30})
	kps, _ := e.Detect(w.Img, features.DefaultFASTConfig(), nil, nil)
	if len(kps) < 50 {
		t.Errorf("world yields only %d described FAST corners", len(kps))
	}
}

func TestPoseFrameToWorldCenterMapping(t *testing.T) {
	p := Pose{X: 100, Y: 200, Heading: 0.5, Zoom: 1.2}
	h := p.FrameToWorld(64, 48)
	center := h.Apply(geom.Pt{X: 32, Y: 24})
	if math.Abs(center.X-100) > 1e-9 || math.Abs(center.Y-200) > 1e-9 {
		t.Errorf("frame center maps to (%v,%v), want (100,200)", center.X, center.Y)
	}
}

func TestPoseValidate(t *testing.T) {
	if err := (Pose{Zoom: 1}).Validate(); err != nil {
		t.Errorf("valid pose rejected: %v", err)
	}
	if err := (Pose{Zoom: 0}).Validate(); err == nil {
		t.Error("zero zoom accepted")
	}
}

func TestInput1Characteristics(t *testing.T) {
	s := Input1(TestScale())
	if s.Name != "Input1" {
		t.Errorf("name = %q", s.Name)
	}
	if s.Len() != TestScale().Frames {
		t.Errorf("frames = %d", s.Len())
	}
	if len(s.Cuts) == 0 {
		t.Error("Input1 should contain scene cuts")
	}
	for _, p := range s.Poses {
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid pose: %v", err)
		}
	}
}

func TestInput2Characteristics(t *testing.T) {
	s := Input2(TestScale())
	if len(s.Cuts) != 0 {
		t.Error("Input2 should have no scene cuts")
	}
	// Smooth: consecutive pose distance small and heading constant.
	for i := 1; i < s.Len(); i++ {
		d := math.Hypot(s.Poses[i].X-s.Poses[i-1].X, s.Poses[i].Y-s.Poses[i-1].Y)
		if d > float64(s.FrameW)*0.05 {
			t.Fatalf("Input2 jump of %v px between frames %d,%d", d, i-1, i)
		}
	}
}

func TestInput1MoreVariationThanInput2(t *testing.T) {
	p := TestScale()
	s1, s2 := Input1(p), Input2(p)
	v1 := meanPoseStep(s1)
	v2 := meanPoseStep(s2)
	if v1 <= v2 {
		t.Errorf("Input1 variation %v not greater than Input2 %v", v1, v2)
	}
}

func meanPoseStep(s *Sequence) float64 {
	var sum float64
	for i := 1; i < s.Len(); i++ {
		sum += math.Hypot(s.Poses[i].X-s.Poses[i-1].X, s.Poses[i].Y-s.Poses[i-1].Y)
		sum += math.Abs(s.Poses[i].Heading-s.Poses[i-1].Heading) * 50
	}
	return sum / float64(s.Len()-1)
}

func TestFrameRenderingDeterministicAndCached(t *testing.T) {
	s := Input2(TestScale())
	a := s.Frame(0)
	b := s.Frame(0)
	if a != b {
		t.Error("frame cache returned different instances")
	}
	s2 := Input2(TestScale())
	if !a.Equal(s2.Frame(0)) {
		t.Error("re-generated sequence differs")
	}
}

func TestFrameOutOfRangePanics(t *testing.T) {
	s := Input2(TestScale())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Frame(-1)
}

func TestFramesRendersAll(t *testing.T) {
	s := Input2(TestScale())
	fs := s.Frames()
	if len(fs) != s.Len() {
		t.Fatalf("Frames returned %d", len(fs))
	}
	for i, f := range fs {
		if f.W != s.FrameW || f.H != s.FrameH {
			t.Fatalf("frame %d has size %dx%d", i, f.W, f.H)
		}
	}
}

func TestConsecutiveFramesOverlap(t *testing.T) {
	// Adjacent frames within a segment must be visually similar
	// (stitchable); frames across a cut must differ sharply.
	s := Input1(TestScale())
	cutSet := map[int]bool{}
	for _, c := range s.Cuts {
		cutSet[c] = true
	}
	// Compare denoised frames: the sequences carry per-frame sensor
	// noise, which raw pixel differencing would mistake for motion.
	denoised := make([]*imgproc.Gray, s.Len())
	for i := range denoised {
		denoised[i] = imgproc.GaussianBlur(s.Frame(i), 2, 1.2)
	}
	var cutDiffs, smoothDiffs []float64
	for i := 1; i < s.Len(); i++ {
		d := frameDiff(denoised[i-1], denoised[i])
		if cutSet[i] {
			cutDiffs = append(cutDiffs, d)
		} else {
			smoothDiffs = append(smoothDiffs, d)
			if d > 70 {
				t.Errorf("frames %d,%d too different for stitching: diff %v", i-1, i, d)
			}
		}
	}
	if len(cutDiffs) == 0 {
		t.Fatal("no cuts in Input1")
	}
	// A cut must look markedly more different than a typical
	// within-segment step (the world is self-similar, so compare
	// relatively rather than against an absolute threshold).
	meanSmooth := 0.0
	for _, d := range smoothDiffs {
		meanSmooth += d
	}
	meanSmooth /= float64(len(smoothDiffs))
	meanCut := 0.0
	for _, d := range cutDiffs {
		meanCut += d
	}
	meanCut /= float64(len(cutDiffs))
	// At Input1's fast pan speed, within-segment motion is itself
	// large; cuts only need to be measurably more different.
	if meanCut < 1.05*meanSmooth {
		t.Errorf("cuts (mean diff %v) not distinct from smooth motion (mean diff %v)", meanCut, meanSmooth)
	}
}

func frameDiff(a, b *imgproc.Gray) float64 {
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(a.Pix))
}

func TestTrueHomographyConsistency(t *testing.T) {
	s := Input2(TestScale())
	h01, err := trueHomography(s, 0, 1)
	if err != nil {
		t.Fatalf("trueHomography: %v", err)
	}
	// A world point seen at p in frame 0 must appear at h01(p) in
	// frame 1: verify by round-tripping through the pose transforms.
	w0 := s.Poses[0].FrameToWorld(s.FrameW, s.FrameH)
	w1 := s.Poses[1].FrameToWorld(s.FrameW, s.FrameH)
	p := geom.Pt{X: 30, Y: 30}
	viaWorld := w0.Apply(p)
	inFrame1 := h01.Apply(p)
	back := w1.Apply(inFrame1)
	if back.Dist(viaWorld) > 1e-6 {
		t.Errorf("homography inconsistent: %v vs %v", back, viaWorld)
	}
}

func TestInputsReturnsBoth(t *testing.T) {
	both := Inputs(TestScale())
	if len(both) != 2 || both[0].Name != "Input1" || both[1].Name != "Input2" {
		t.Errorf("Inputs = %v", []string{both[0].Name, both[1].Name})
	}
}

func TestPresets(t *testing.T) {
	for _, p := range []Preset{PaperScale(), BenchScale(), TestScale()} {
		if p.Frames <= 0 || p.FrameW <= 0 || p.FrameH <= 0 || p.WorldSize <= 0 {
			t.Errorf("invalid preset %+v", p)
		}
	}
	if PaperScale().Frames != 1000 {
		t.Error("paper scale must use 1000 frames as in §III-B")
	}
}

func BenchmarkGenerateWorld(b *testing.B) {
	cfg := WorldConfig{Size: 512, Seed: 1, Buildings: 100, Roads: 8, Blobs: 60}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateWorld(cfg)
	}
}

func BenchmarkRenderFrame(b *testing.B) {
	s := Input2(TestScale())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.frames = nil // defeat the cache
		s.Frame(0)
	}
}

// trueHomography returns the ground-truth transform mapping frame i
// coordinates to frame j coordinates.
func trueHomography(s *Sequence, i, j int) (geom.Homography, error) {
	wi := s.Poses[i].FrameToWorld(s.FrameW, s.FrameH)
	wj := s.Poses[j].FrameToWorld(s.FrameW, s.FrameH)
	wjInv, err := wj.Inverse()
	if err != nil {
		return geom.Homography{}, fmt.Errorf("virat: pose %d not invertible: %w", j, err)
	}
	return wjInv.Mul(wi), nil
}
