package ransac

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vsresil/internal/fault"
	"vsresil/internal/geom"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// Estimate is one whole search: Begin, one Step over every iteration
// and Finish. It is the reference the split and replayed searches are
// checked against.
func Estimate(src, dst []geom.Pt, cfg Config, s probe.Sink) (*Result, error) {
	sr, err := Begin(src, dst, cfg, s)
	if err != nil {
		return nil, err
	}
	sr.Step(src, dst, sr.iters, s)
	return sr.Finish(src, dst, s)
}

// makeCorrespondences generates n correspondences under transform h,
// with outlierFrac of them replaced by random junk and optional
// Gaussian noise on the inliers.
func makeCorrespondences(h geom.Homography, n int, outlierFrac, noise float64, seed uint64) (src, dst []geom.Pt) {
	rng := stats.NewRNG(seed)
	outliers := int(float64(n) * outlierFrac)
	for i := 0; i < n; i++ {
		p := geom.Pt{X: rng.Float64() * 320, Y: rng.Float64() * 240}
		q := h.Apply(p)
		if i < outliers {
			q = geom.Pt{X: rng.Float64() * 320, Y: rng.Float64() * 240}
		} else if noise > 0 {
			q.X += rng.NormFloat64() * noise
			q.Y += rng.NormFloat64() * noise
		}
		src = append(src, p)
		dst = append(dst, q)
	}
	return src, dst
}

func TestEstimateRecoversHomographyCleanData(t *testing.T) {
	want := geom.Translation(15, -8).Mul(geom.Rotation(0.1))
	src, dst := makeCorrespondences(want, 60, 0, 0, 1)
	res, err := Estimate(src, dst, DefaultConfig(ModelHomography), nil)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if len(res.Inliers) != 60 {
		t.Errorf("inliers = %d, want 60", len(res.Inliers))
	}
	p := geom.Pt{X: 100, Y: 100}
	got := res.H.Apply(p)
	exp := want.Apply(p)
	if got.Dist(exp) > 0.1 {
		t.Errorf("recovered transform maps %v to %v, want %v", p, got, exp)
	}
}

func TestEstimateRobustToOutliers(t *testing.T) {
	want := geom.Translation(5, 12)
	src, dst := makeCorrespondences(want, 80, 0.4, 0.5, 2)
	res, err := Estimate(src, dst, DefaultConfig(ModelHomography), nil)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	// At least the clean 60% should be inliers.
	if len(res.Inliers) < 40 {
		t.Errorf("inliers = %d, want >= 40", len(res.Inliers))
	}
	p := geom.Pt{X: 50, Y: 60}
	if res.H.Apply(p).Dist(want.Apply(p)) > 2 {
		t.Errorf("estimate off by %v px", res.H.Apply(p).Dist(want.Apply(p)))
	}
}

func TestEstimateAffineModel(t *testing.T) {
	aff := geom.Affine{1.1, 0.05, 7, -0.02, 0.95, -4}
	want := aff.Homography()
	src, dst := makeCorrespondences(want, 30, 0.2, 0.2, 3)
	res, err := Estimate(src, dst, DefaultConfig(ModelAffine), nil)
	if err != nil {
		t.Fatalf("Estimate affine: %v", err)
	}
	if res.H[6] != 0 || res.H[7] != 0 {
		t.Error("affine estimate has perspective terms")
	}
	p := geom.Pt{X: 200, Y: 100}
	if res.H.Apply(p).Dist(want.Apply(p)) > 1.5 {
		t.Errorf("affine estimate error %v", res.H.Apply(p).Dist(want.Apply(p)))
	}
}

func TestEstimateNoConsensusOnRandomData(t *testing.T) {
	rng := stats.NewRNG(5)
	var src, dst []geom.Pt
	for i := 0; i < 40; i++ {
		src = append(src, geom.Pt{X: rng.Float64() * 320, Y: rng.Float64() * 240})
		dst = append(dst, geom.Pt{X: rng.Float64() * 320, Y: rng.Float64() * 240})
	}
	cfg := DefaultConfig(ModelHomography)
	cfg.MinInliers = 15
	if _, err := Estimate(src, dst, cfg, nil); !errors.Is(err, ErrNoConsensus) {
		t.Errorf("expected ErrNoConsensus, got %v", err)
	}
}

func TestEstimateTooFewPoints(t *testing.T) {
	src := []geom.Pt{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	if _, err := Estimate(src, src, DefaultConfig(ModelHomography), nil); !errors.Is(err, ErrNoConsensus) {
		t.Errorf("expected ErrNoConsensus for 3 points, got %v", err)
	}
}

func TestEstimateMismatchedInput(t *testing.T) {
	src := []geom.Pt{{X: 0, Y: 0}}
	dst := []geom.Pt{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if _, err := Estimate(src, dst, DefaultConfig(ModelHomography), nil); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestEstimateDeterministicAcrossRuns(t *testing.T) {
	want := geom.Translation(3, 4).Mul(geom.Rotation(0.05))
	src, dst := makeCorrespondences(want, 50, 0.3, 0.3, 7)
	cfg := DefaultConfig(ModelHomography)
	cfg.Seed = 99
	a, err := Estimate(src, dst, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(src, dst, cfg, fault.New())
	if err != nil {
		t.Fatal(err)
	}
	if a.H != b.H || len(a.Inliers) != len(b.Inliers) {
		t.Error("instrumented run differs from bare run")
	}
}

func TestEstimateSeedChangesSampling(t *testing.T) {
	// With heavy outliers, different seeds may find different but
	// valid consensus sets. Just confirm both succeed; determinism per
	// seed is covered above.
	want := geom.Translation(3, 4)
	src, dst := makeCorrespondences(want, 60, 0.3, 0.2, 11)
	for _, seed := range []uint64{1, 2} {
		cfg := DefaultConfig(ModelHomography)
		cfg.Seed = seed
		if _, err := Estimate(src, dst, cfg, nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestEstimateMeanErrorSmallOnCleanData(t *testing.T) {
	want := geom.Translation(1, 1)
	src, dst := makeCorrespondences(want, 40, 0, 0, 13)
	res, err := Estimate(src, dst, DefaultConfig(ModelHomography), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error > 0.01 {
		t.Errorf("mean inlier error %v on clean data", res.Error)
	}
}

func TestEstimateRefitImprovesNoisyFit(t *testing.T) {
	want := geom.Translation(9, -3)
	src, dst := makeCorrespondences(want, 100, 0.2, 0.8, 17)
	cfg := DefaultConfig(ModelHomography)
	withRefit, err := Estimate(src, dst, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableRefit = true
	withoutRefit, err := Estimate(src, dst, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(withRefit.Inliers) < len(withoutRefit.Inliers) {
		t.Errorf("refit lost inliers: %d vs %d", len(withRefit.Inliers), len(withoutRefit.Inliers))
	}
}

func TestModelString(t *testing.T) {
	if ModelHomography.String() == "" || ModelAffine.String() == "" || Model(7).String() == "" {
		t.Error("empty model string")
	}
}

func TestDrawSampleDistinct(t *testing.T) {
	rng := stats.NewRNG(1)
	var sample [4]int
	for trial := 0; trial < 100; trial++ {
		if !drawSample(rng, 10, 4, &sample) {
			t.Fatal("drawSample failed")
		}
		seen := map[int]bool{}
		for _, v := range sample {
			if v < 0 || v >= 10 || seen[v] {
				t.Fatalf("bad sample %v", sample)
			}
			seen[v] = true
		}
	}
	if drawSample(rng, 2, 4, &sample) {
		t.Error("drawSample should fail when n < k")
	}
}

// Property: the estimated model's inlier set is exactly the set of
// correspondences within the threshold.
func TestPropertyInlierSetConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		want := geom.Translation(4, 4)
		src, dst := makeCorrespondences(want, 40, 0.25, 0.3, seed)
		cfg := DefaultConfig(ModelHomography)
		cfg.Seed = seed
		res, err := Estimate(src, dst, cfg, nil)
		if err != nil {
			return true // no consensus is acceptable for some draws
		}
		inlierSet := map[int]bool{}
		for _, i := range res.Inliers {
			inlierSet[i] = true
		}
		th2 := cfg.InlierThreshold * cfg.InlierThreshold
		for i := range src {
			in := res.H.Apply(src[i]).Dist2(dst[i]) <= th2
			if in != inlierSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: recovered homography agrees with ground truth on the unit
// test grid for pure translations of any magnitude.
func TestPropertyRecoverTranslation(t *testing.T) {
	f := func(txRaw, tyRaw int16) bool {
		tx := float64(txRaw) / 256
		ty := float64(tyRaw) / 256
		want := geom.Translation(tx, ty)
		src, dst := makeCorrespondences(want, 30, 0, 0, uint64(txRaw)^uint64(tyRaw)<<16)
		res, err := Estimate(src, dst, DefaultConfig(ModelHomography), nil)
		if err != nil {
			return false
		}
		p := geom.Pt{X: 17, Y: 23}
		return res.H.Apply(p).Dist(want.Apply(p)) < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEstimateWithNaNPoints(t *testing.T) {
	// Corrupted float data (as a fault can produce) must not make the
	// estimator return a non-finite model.
	want := geom.Translation(2, 2)
	src, dst := makeCorrespondences(want, 30, 0, 0, 19)
	src[0] = geom.Pt{X: math.NaN(), Y: math.NaN()}
	res, err := Estimate(src, dst, DefaultConfig(ModelHomography), nil)
	if err != nil {
		return // rejection is fine
	}
	if !res.H.IsFinite() {
		t.Error("estimator returned non-finite model")
	}
}

func BenchmarkEstimateHomography(b *testing.B) {
	want := geom.Translation(15, -8).Mul(geom.Rotation(0.1))
	src, dst := makeCorrespondences(want, 200, 0.3, 0.5, 1)
	cfg := DefaultConfig(ModelHomography)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(src, dst, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// machineTrace is everything a sink observes of a run: the tap
// counters and the op accounting per region and class.
type machineTrace struct {
	counters fault.TapCounters
	ops      [fault.NumRegions][fault.NumOpClasses]uint64
}

func traceOf(m *fault.Machine) machineTrace {
	tr := machineTrace{counters: m.Counters()}
	for r := range tr.ops {
		for c := range tr.ops[r] {
			tr.ops[r][c] = m.OpCount(fault.Region(r), fault.OpClass(c))
		}
	}
	return tr
}

// TestSearchSplitMatchesEstimate checks that a search split at any
// iteration — Begin, Step to the split, a copy of the state Stepped to
// the end, Finish — reproduces Estimate's result bits, taps and op
// counts, and the search state of one uninterrupted Step: the
// value-type state carries the whole sampler, RNG included. Noisy
// inliers make nearly every sample's consensus count differ, so the
// best model depends on the exact sample sequence.
func TestSearchSplitMatchesEstimate(t *testing.T) {
	for _, model := range []Model{ModelHomography, ModelAffine} {
		src, dst := makeCorrespondences(geom.Translation(5, 12).Mul(geom.Rotation(0.05)), 60, 0.4, 2, 23)
		cfg := DefaultConfig(model)
		cfg.Seed = 7
		cfg.Iterations = 120
		gm := fault.New()
		want, err := Estimate(src, dst, cfg, gm)
		if err != nil {
			t.Fatalf("%v: Estimate: %v", model, err)
		}
		wantTrace := traceOf(gm)
		whole, err := Begin(src, dst, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		whole.Step(src, dst, whole.Iterations(), nil)
		for split := 0; split <= cfg.Iterations; split++ {
			m := fault.New()
			sr, err := Begin(src, dst, cfg, m)
			if err != nil {
				t.Fatalf("%v split %d: Begin: %v", model, split, err)
			}
			sr.Step(src, dst, split, m)
			if sr.Iteration() != split {
				t.Fatalf("%v: Step(%d) stopped at iteration %d", model, split, sr.Iteration())
			}
			resumed := sr
			resumed.Step(src, dst, resumed.Iterations(), m)
			if !resumed.EqualBits(&whole) {
				t.Fatalf("%v split %d: search state differs from one uninterrupted Step", model, split)
			}
			got, err := resumed.Finish(src, dst, m)
			if err != nil {
				t.Fatalf("%v split %d: Finish: %v", model, split, err)
			}
			if !got.H.EqualBits(want.H) || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
				!slices.Equal(got.Inliers, want.Inliers) {
				t.Fatalf("%v split %d: result differs from Estimate's", model, split)
			}
			if traceOf(m) != wantTrace {
				t.Fatalf("%v split %d: taps or op counts differ from Estimate's", model, split)
			}
		}
	}
}

// TestSearchEqualBits checks that the search state compares on every
// field a resumed search reads: the position, the RNG state and the
// best model.
func TestSearchEqualBits(t *testing.T) {
	src, dst := makeCorrespondences(geom.Translation(3, 4), 50, 0.3, 0.3, 29)
	sr, err := Begin(src, dst, DefaultConfig(ModelHomography), nil)
	if err != nil {
		t.Fatal(err)
	}
	sr.Step(src, dst, 40, nil)
	same := sr
	if !sr.EqualBits(&same) {
		t.Fatal("a copy of the search state compares unequal")
	}
	for name, mutate := range map[string]func(*Search){
		"iteration": func(s *Search) { s.it++ },
		"rng":       func(s *Search) { s.rng.Uint64() },
		"best":      func(s *Search) { s.bestH[0] = math.Copysign(0, -1) * s.bestH[0] },
		"count":     func(s *Search) { s.bestCount++ },
	} {
		o := sr
		mutate(&o)
		if sr.EqualBits(&o) {
			t.Errorf("mutating the %s compares equal", name)
		}
	}
}
