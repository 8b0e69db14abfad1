package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	h := NewHistogram(10)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Add(r.Intn(10))
	}
	// Chi-square with 9 dof: 99.9th percentile ~ 27.9.
	if chi2 := h.ChiSquareUniform(); chi2 > 30 {
		t.Errorf("Intn not uniform: chi2 = %v", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Error("split streams collided immediately")
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(12345) != Hash64(12345) {
		t.Error("Hash64 not deterministic")
	}
	if Hash64(1) == Hash64(2) {
		t.Error("Hash64 trivially collides")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	h.Add(0)
	h.Add(1)
	h.Add(1)
	h.Add(-1) // ignored
	h.Add(99) // ignored
	if h.Total() != 3 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Counts[1] != 2 {
		t.Errorf("Counts[1] = %d", h.Counts[1])
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

func TestChiSquareUniformPerfect(t *testing.T) {
	h := NewHistogram(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 25; j++ {
			h.Add(i)
		}
	}
	if chi2 := h.ChiSquareUniform(); chi2 != 0 {
		t.Errorf("perfectly uniform chi2 = %v", chi2)
	}
}

func TestChiSquareEmptyHistogram(t *testing.T) {
	h := NewHistogram(0)
	if chi2 := h.ChiSquareUniform(); chi2 != 0 {
		t.Errorf("empty chi2 = %v", chi2)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should return 0")
	}
}

func TestRateCurve(t *testing.T) {
	rc := NewRateCurve(2, 10)
	for i := 0; i < 100; i++ {
		rc.Add(i % 2)
	}
	if rc.Total() != 100 {
		t.Errorf("Total = %d", rc.Total())
	}
	final := rc.Final()
	if final[0] != 0.5 || final[1] != 0.5 {
		t.Errorf("Final = %v", final)
	}
	if len(rc.Checkpoints) != 10 {
		t.Errorf("checkpoints = %d", len(rc.Checkpoints))
	}
	// Alternating outcomes are stable almost immediately.
	if knee := rc.Knee(0.01); knee > 20 {
		t.Errorf("Knee = %d, expected early stabilization", knee)
	}
}

func TestRateCurveKneeDetectsLateShift(t *testing.T) {
	rc := NewRateCurve(2, 10)
	// First 80 samples category 0, last 20 category 1: the rates keep
	// moving until the very end, so the knee is late.
	for i := 0; i < 80; i++ {
		rc.Add(0)
	}
	for i := 0; i < 20; i++ {
		rc.Add(1)
	}
	if knee := rc.Knee(0.01); knee < 90 {
		t.Errorf("Knee = %d, expected late stabilization", knee)
	}
}

func TestRateCurveEmpty(t *testing.T) {
	rc := NewRateCurve(3, 10)
	if knee := rc.Knee(0.01); knee != 0 {
		t.Errorf("empty Knee = %d", knee)
	}
	f := rc.Final()
	for _, v := range f {
		if v != 0 {
			t.Error("empty Final should be zeros")
		}
	}
}

func TestRateCurveIgnoresBadCategory(t *testing.T) {
	rc := NewRateCurve(2, 1)
	rc.Add(5)
	if rc.Total() != 1 {
		t.Error("total should still advance")
	}
	f := rc.Final()
	if f[0] != 0 || f[1] != 0 {
		t.Error("invalid category should not be counted in any bin")
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Intn(1000)
	}
}
