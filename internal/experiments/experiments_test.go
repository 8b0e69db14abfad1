package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// tinyOptions keeps the integration tests fast (single-core CI).
func tinyOptions() Options {
	p := virat.TestScale()
	p.Frames = 14
	return Options{Preset: p, Trials: 150, QualityTrials: 200, Seed: 1}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(tinyOptions())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (4 algs x 2 inputs)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Algorithm == vs.AlgVS {
			if row.Norm.Time != 1 || row.Norm.Energy != 1 {
				t.Errorf("%s baseline not unity: %+v", row.Input, row.Norm)
			}
			continue
		}
		// Approximations must not be slower than baseline, and IPC
		// must stay roughly flat (the Fig 5 observation).
		if row.Norm.Time > 1.02 {
			t.Errorf("%s/%s time %.3f > 1", row.Input, row.Algorithm, row.Norm.Time)
		}
		if row.Norm.Energy > 1.02 {
			t.Errorf("%s/%s energy %.3f > 1", row.Input, row.Algorithm, row.Norm.Energy)
		}
		if row.Norm.IPC < 0.8 || row.Norm.IPC > 1.2 {
			t.Errorf("%s/%s IPC %.3f not ~1", row.Input, row.Algorithm, row.Norm.IPC)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf, tinyOptions())
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig6WritesImages(t *testing.T) {
	o := tinyOptions()
	o.ImageDir = t.TempDir()
	res, err := Fig6(o)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(res.Files) != 8 {
		t.Errorf("wrote %d images, want 8", len(res.Files))
	}
	if len(res.Sizes) != 8 {
		t.Errorf("sizes = %d, want 8", len(res.Sizes))
	}
	var buf bytes.Buffer
	res.Write(&buf, o)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(tinyOptions())
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if res.Profile.WarpFraction < 0.25 {
		t.Errorf("warp fraction %.3f, want dominant", res.Profile.WarpFraction)
	}
	if res.Profile.LibraryFraction < 0.45 {
		t.Errorf("library fraction %.3f, want majority", res.Profile.LibraryFraction)
	}
	var buf bytes.Buffer
	res.Write(&buf, tinyOptions())
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig9Coverage(t *testing.T) {
	res, err := Fig9(context.Background(), tinyOptions())
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if res.Knee <= 0 || res.Knee > tinyOptions().Trials {
		t.Errorf("knee = %d", res.Knee)
	}
	// Uniformity: with 150 samples over 32 registers the chi-square
	// should be around 31; allow a broad band.
	if res.Chi2 > 70 {
		t.Errorf("register coverage chi2 = %.1f, not uniform", res.Chi2)
	}
	if res.Campaign.BitHist.Total() != tinyOptions().Trials {
		t.Error("bit histogram incomplete")
	}
	var buf bytes.Buffer
	res.Write(&buf, tinyOptions())
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(context.Background(), tinyOptions())
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		var sum float64
		for _, r := range c.Rates {
			sum += r
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s/%s rates sum %.3f", c.Input, c.Class, sum)
		}
		switch c.Class {
		case fault.FPR:
			// The paper's headline: FPR faults are masked > 99.5% of
			// the time. Allow a margin at tiny scale.
			if c.Rates[fault.OutcomeMask] < 0.95 {
				t.Errorf("%s FPR mask rate %.3f, want > 0.95", c.Input, c.Rates[fault.OutcomeMask])
			}
		case fault.GPR:
			// GPR faults crash substantially (paper: ~40%).
			if c.Rates[fault.OutcomeCrash] < 0.10 {
				t.Errorf("%s GPR crash rate %.3f, want substantial", c.Input, c.Rates[fault.OutcomeCrash])
			}
			if c.Rates[fault.OutcomeMask] < 0.2 {
				t.Errorf("%s GPR mask rate %.3f implausibly low", c.Input, c.Rates[fault.OutcomeMask])
			}
		}
	}
	var buf bytes.Buffer
	res.Write(&buf, tinyOptions())
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig11aShape(t *testing.T) {
	res, err := Fig11a(context.Background(), tinyOptions())
	if err != nil {
		t.Fatalf("Fig11a: %v", err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// The approximations' profiles must track the baseline: crash and
	// mask rates within a loose band of the same-input baseline.
	base := map[string][fault.NumOutcomes]float64{}
	for _, c := range res.Cells {
		if c.Algorithm == vs.AlgVS {
			base[c.Input] = c.Rates
		}
	}
	for _, c := range res.Cells {
		if c.Algorithm == vs.AlgVS {
			continue
		}
		b := base[c.Input]
		// "Very similar" profiles (§VI-B); the band is generous because
		// the tiny test scale amplifies per-variant differences.
		if diff := c.Rates[fault.OutcomeCrash] - b[fault.OutcomeCrash]; diff > 0.2 || diff < -0.2 {
			t.Errorf("%s/%s crash rate deviates %.3f from baseline", c.Input, c.Algorithm, diff)
		}
		if diff := c.Rates[fault.OutcomeMask] - b[fault.OutcomeMask]; diff > 0.2 || diff < -0.2 {
			t.Errorf("%s/%s mask rate deviates %.3f from baseline", c.Input, c.Algorithm, diff)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf, tinyOptions())
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig11bCompositionalMasking(t *testing.T) {
	res, err := Fig11b(context.Background(), tinyOptions())
	if err != nil {
		t.Fatalf("Fig11b: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's conclusion: the full application masks more of the
	// hot-function faults than the standalone kernel (compositional
	// masking). Compare the combined mask rates.
	for _, fn := range []fault.Region{fault.RWarpInvoker, fault.RRemapBilinear} {
		wpMask := maskRate(res, "WP", fn)
		vsMask := maskRate(res, "VS", fn)
		if wpMask < 0 || vsMask < 0 {
			t.Fatalf("missing rows for %v", fn)
		}
		if vsMask < wpMask-0.05 {
			t.Errorf("%v: VS mask rate %.3f below WP %.3f — no compositional masking", fn, vsMask, wpMask)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf, tinyOptions())
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12(context.Background(), tinyOptions())
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(res.Series) != 16 {
		t.Fatalf("series = %d, want 16 (4 algs x 2 inputs x 2 baselines)", len(res.Series))
	}
	for _, s := range res.Series {
		// Cumulative curves must be monotone.
		for k := 1; k < len(s.Curve.Fraction); k++ {
			if s.Curve.Fraction[k] < s.Curve.Fraction[k-1] {
				t.Fatalf("%s/%s/%s curve not monotone", s.Input, s.Algorithm, s.Baseline)
			}
		}
	}
	var buf bytes.Buffer
	res.Write(&buf, tinyOptions())
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig13Norms(t *testing.T) {
	o := tinyOptions()
	o.ImageDir = t.TempDir()
	res, err := Fig13(o)
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	if len(res.Norms) != 2 {
		t.Fatalf("norms = %d", len(res.Norms))
	}
	for input, n := range res.Norms {
		if n < 0 {
			t.Errorf("%s norm %v negative", input, n)
		}
	}
	if len(res.Files) != 8 {
		t.Errorf("wrote %d images, want 8", len(res.Files))
	}
	if !slices.IsSorted(res.Files) {
		t.Errorf("images written out of order: %v", res.Files)
	}
	var buf bytes.Buffer
	res.Write(&buf, o)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

// TestFigureWritesOrderStable renders the map-backed figure tables
// repeatedly: every rendering must be byte-identical, so a committed
// table can be compared with a regenerated one.
func TestFigureWritesOrderStable(t *testing.T) {
	fig6 := &Fig6Result{Sizes: map[string][2]int{}}
	fig13 := &Fig13Result{Norms: map[string]float64{}}
	for i := range 8 {
		fig6.Sizes[fmt.Sprintf("Input%d/VS_%d", i%2+1, i)] = [2]int{100 + i, 50 + i}
		fig13.Norms[fmt.Sprintf("Input%d", i+1)] = float64(i) * 1.5
	}
	for _, w := range []interface{ Write(io.Writer, Options) }{fig6, fig13} {
		var first bytes.Buffer
		w.Write(&first, tinyOptions())
		for range 20 {
			var again bytes.Buffer
			w.Write(&again, tinyOptions())
			if !bytes.Equal(again.Bytes(), first.Bytes()) {
				t.Fatalf("%T.Write output changed between renderings:\n%s\nvs\n%s", w, first.String(), again.String())
			}
		}
	}
}

// maskRate returns the Mask rate of an app/function row, or -1 when
// absent.
func maskRate(r *Fig11bResult, app string, fn fault.Region) float64 {
	for _, row := range r.Rows {
		if row.App == app && row.Function == fn {
			return row.Rates[fault.OutcomeMask]
		}
	}
	return -1
}
