package imgproc

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"os"
	"testing"
	"testing/quick"
)

func TestNewGray(t *testing.T) {
	g := NewGray(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("NewGray(4,3) = %dx%d len %d", g.W, g.H, len(g.Pix))
	}
	for _, v := range g.Pix {
		if v != 0 {
			t.Fatal("new image not zeroed")
		}
	}
}

func TestNewGrayNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative size")
		}
	}()
	NewGray(-1, 3)
}

func TestAtSetRoundTrip(t *testing.T) {
	g := NewGray(5, 5)
	g.Set(2, 3, 77)
	if got := g.At(2, 3); got != 77 {
		t.Errorf("At = %d, want 77", got)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	g := NewGray(2, 2)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for access %v", c)
				}
			}()
			g.At(c[0], c[1])
		}()
	}
}

func TestAtClamped(t *testing.T) {
	g := NewGray(3, 3)
	g.Set(0, 0, 11)
	g.Set(2, 2, 22)
	if got := g.AtClamped(-5, -5); got != 11 {
		t.Errorf("AtClamped(-5,-5) = %d, want 11", got)
	}
	if got := g.AtClamped(99, 99); got != 22 {
		t.Errorf("AtClamped(99,99) = %d, want 22", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(0, 0, 1)
	c := g.Clone()
	c.Set(0, 0, 200)
	if g.At(0, 0) != 1 {
		t.Error("Clone shares pixel storage with original")
	}
}

func TestEqual(t *testing.T) {
	a := NewGray(3, 2)
	b := NewGray(3, 2)
	if !a.Equal(b) {
		t.Error("identical zero images should be equal")
	}
	b.Set(1, 1, 5)
	if a.Equal(b) {
		t.Error("differing images should not be equal")
	}
	if a.Equal(NewGray(2, 3)) {
		t.Error("different shapes should not be equal")
	}
	if a.Equal(nil) {
		t.Error("nil should not be equal")
	}
}

func TestMean(t *testing.T) {
	g := NewGray(2, 2)
	g.Pix = []uint8{0, 100, 200, 100}
	if got := g.Mean(); got != 100 {
		t.Errorf("Mean = %v, want 100", got)
	}
	empty := NewGray(0, 0)
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
}

func TestSaturateUint8(t *testing.T) {
	cases := []struct {
		in   float64
		want uint8
	}{
		{-10, 0},
		{0, 0},
		{0.4, 0},
		{0.6, 1},
		{254.9, 255},
		{255, 255},
		{1e18, 255},
		{math.Inf(1), 255},
		{math.Inf(-1), 0},
		{math.NaN(), 0},
		{127.5, 128},
	}
	for _, tc := range cases {
		if got := SaturateUint8(tc.in); got != tc.want {
			t.Errorf("SaturateUint8(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// Property: saturate-cast always lands in [0,255] and is monotone.
func TestPropertySaturateMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return SaturateUint8(a) <= SaturateUint8(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMatAtSet(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(1, 0, 3.5)
	if got := m.At(1, 0); got != 3.5 {
		t.Errorf("Mat.At = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out of range mat access")
		}
	}()
	m.At(5, 5)
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, r := range []int{0, 1, 3, 7} {
		k := GaussianKernel(r, 0)
		if len(k) != 2*r+1 {
			t.Errorf("radius %d: kernel length %d", r, len(k))
		}
		var sum float64
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("radius %d: kernel sum %v", r, sum)
		}
		// Symmetric and peaked at center.
		for i := 0; i < len(k)/2; i++ {
			if math.Abs(k[i]-k[len(k)-1-i]) > 1e-12 {
				t.Errorf("radius %d: kernel asymmetric", r)
			}
		}
	}
}

func TestGaussianBlurConstantImage(t *testing.T) {
	g := NewGray(8, 8)
	g.Fill(97)
	b := GaussianBlur(g, 2, 1.0)
	for i, v := range b.Pix {
		if v != 97 {
			t.Fatalf("blur of constant image changed pixel %d to %d", i, v)
		}
	}
}

func TestGaussianBlurSmooths(t *testing.T) {
	g := NewGray(9, 9)
	g.Set(4, 4, 255)
	b := GaussianBlur(g, 2, 1.0)
	if b.At(4, 4) >= 255 {
		t.Error("blur did not reduce the impulse peak")
	}
	if b.At(3, 4) == 0 {
		t.Error("blur did not spread the impulse")
	}
}

func TestSampleBilinear(t *testing.T) {
	g := NewGray(2, 2)
	g.Pix = []uint8{0, 100, 100, 200}
	if v, ok := SampleBilinear(g, 0, 0); !ok || v != 0 {
		t.Errorf("corner sample = %d,%v", v, ok)
	}
	if v, ok := SampleBilinear(g, 0.5, 0.5); !ok || v != 100 {
		t.Errorf("center sample = %d,%v want 100", v, ok)
	}
	if _, ok := SampleBilinear(g, -1, 0); ok {
		t.Error("outside sample should fail")
	}
	if _, ok := SampleBilinear(g, 5, 5); ok {
		t.Error("outside sample should fail")
	}
	if _, ok := SampleBilinear(g, math.NaN(), 0); ok {
		t.Error("NaN sample should fail")
	}
	// Exact sample on the last row/column corner is valid.
	if v, ok := SampleBilinear(g, 1, 1); !ok || v != 200 {
		t.Errorf("last corner sample = %d,%v want 200", v, ok)
	}
}

func TestAbsDiff(t *testing.T) {
	a := NewGray(2, 2)
	b := NewGray(2, 2)
	a.Pix = []uint8{10, 200, 0, 255}
	b.Pix = []uint8{20, 100, 0, 0}
	d := AbsDiff(a, b)
	want := []uint8{10, 100, 0, 255}
	for i := range want {
		if d.Pix[i] != want[i] {
			t.Errorf("AbsDiff[%d] = %d, want %d", i, d.Pix[i], want[i])
		}
	}
}

func TestAbsDiffMismatchedSizes(t *testing.T) {
	a := NewGray(3, 3)
	b := NewGray(2, 2)
	d := AbsDiff(a, b)
	if d.W != 3 || d.H != 3 {
		t.Fatalf("AbsDiff shape %dx%d", d.W, d.H)
	}
	// Intersection identical (both zero), outside = 255.
	if d.At(0, 0) != 0 {
		t.Error("intersection should be 0")
	}
	if d.At(2, 2) != 255 {
		t.Error("non-overlap should be max difference")
	}
}

func TestThreshold(t *testing.T) {
	g := NewGray(1, 4)
	g.Pix = []uint8{0, 127, 128, 255}
	th := Threshold(g, 128)
	want := []uint8{0, 0, 128, 255}
	for i := range want {
		if th.Pix[i] != want[i] {
			t.Errorf("Threshold[%d] = %d, want %d", i, th.Pix[i], want[i])
		}
	}
}

func TestPGMRoundTrip(t *testing.T) {
	g := NewGray(5, 3)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 17)
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, g); err != nil {
		t.Fatalf("WritePGM: %v", err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatalf("ReadPGM: %v", err)
	}
	if !back.Equal(g) {
		t.Error("PGM round trip changed pixels")
	}
}

func TestReadPGMWithComment(t *testing.T) {
	data := []byte("P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
	g, err := ReadPGM(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadPGM: %v", err)
	}
	if g.W != 2 || g.H != 2 || g.Pix[3] != 4 {
		t.Errorf("parsed %dx%d pix %v", g.W, g.H, g.Pix)
	}
}

func TestReadPGMErrors(t *testing.T) {
	cases := map[string]string{
		"bad magic":   "P6\n2 2\n255\n....",
		"bad maxval":  "P5\n2 2\n65535\n....",
		"truncated":   "P5\n4 4\n255\n\x01",
		"no header":   "",
		"absurd size": "P5\n999999999 999999999\n255\n",
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadPGM(bytes.NewReader([]byte(data))); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPNGRoundTrip(t *testing.T) {
	g := NewGray(4, 4)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 15)
	}
	dir := t.TempDir()
	path := dir + "/x.png"
	if err := SavePNG(path, g); err != nil {
		t.Fatalf("SavePNG: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("png.Decode: %v", err)
	}
	gray, ok := back.(*image.Gray)
	if !ok || gray.Rect.Dx() != g.W || gray.Rect.Dy() != g.H || !bytes.Equal(gray.Pix, g.Pix) {
		t.Error("PNG round trip changed pixels")
	}
}

func TestSaveLoadPGMFile(t *testing.T) {
	g := NewGray(3, 3)
	g.Set(1, 1, 42)
	dir := t.TempDir()
	path := dir + "/x.pgm"
	if err := SavePGM(path, g); err != nil {
		t.Fatalf("SavePGM: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadPGM(f)
	if err != nil {
		t.Fatalf("ReadPGM: %v", err)
	}
	if !back.Equal(g) {
		t.Error("file round trip changed pixels")
	}
}

// Property: PGM round-trips arbitrary small images bit-exactly.
func TestPropertyPGMRoundTrip(t *testing.T) {
	f := func(pix []uint8) bool {
		n := len(pix)
		if n == 0 {
			return true
		}
		w := 1
		for w*w < n {
			w++
		}
		g := NewGray(w, (n+w-1)/w)
		copy(g.Pix, pix)
		var buf bytes.Buffer
		if err := WritePGM(&buf, g); err != nil {
			return false
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			return false
		}
		return back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGaussianBlur(b *testing.B) {
	g := NewGray(320, 240)
	for i := range g.Pix {
		g.Pix[i] = uint8(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GaussianBlur(g, 2, 1.0)
	}
}

func BenchmarkSampleBilinear(b *testing.B) {
	g := NewGray(320, 240)
	for i := range g.Pix {
		g.Pix[i] = uint8(i)
	}
	for i := 0; i < b.N; i++ {
		SampleBilinear(g, 100.3, 100.7)
	}
}
