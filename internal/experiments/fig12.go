package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/quality"
	"vsresil/internal/stitch"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// MaxReportedED is the largest ED plotted on the Fig 12 X axis.
const MaxReportedED = 40

// Fig12Series is one curve of Fig 12.
type Fig12Series struct {
	Input     string
	Algorithm vs.Algorithm
	// Baseline names the golden reference: "VS_golden" (panels a, b)
	// or "Approx_golden" (panels c, d).
	Baseline string
	Curve    quality.Curve
	SDCs     int
}

// Fig12Result reproduces Fig 12: cumulative ED distributions of the
// SDCs produced by each algorithm, measured against both the baseline
// VS golden output and the corresponding approximate golden output.
type Fig12Result struct {
	Series []Fig12Series
	// GoldenED records the ED of each Approx_golden vs VS_golden per
	// input — the curve-shift offset the paper discusses (e.g. VS_SM
	// golden at ED 37 for Input 1).
	GoldenED map[string]quality.ED
}

// Fig12 runs SDC-quality campaigns for every algorithm on both inputs.
func Fig12(ctx context.Context, o Options) (*Fig12Result, error) {
	o = o.withDefaults()
	out := &Fig12Result{GoldenED: make(map[string]quality.ED)}
	qcfg := quality.DefaultConfig()
	classifyPanoramas := func(g, f *stitch.Panorama, cfg quality.Config) quality.ED {
		return quality.ClassifyPlaced(g.Image, f.Image,
			g.Bounds.MinX, g.Bounds.MinY, f.Bounds.MinX, f.Bounds.MinY, cfg)
	}
	for _, seq := range virat.Inputs(o.Preset) {
		// Golden primaries per algorithm, kept with their panorama
		// origins so cross-run comparisons stay registered.
		goldens := make(map[vs.Algorithm]*stitch.Panorama)
		for _, alg := range vs.Algorithms() {
			res, _, err := goldenRun(alg, seq, o.Seed)
			if err != nil {
				return nil, err
			}
			goldens[alg] = res.Primary()
			if alg != vs.AlgVS {
				key := seq.Name + "/" + alg.String()
				out.GoldenED[key] = classifyPanoramas(goldens[vs.AlgVS], goldens[alg], qcfg)
			}
		}
		for _, alg := range vs.Algorithms() {
			res, err := campaignFor(ctx, o, alg, seq, fault.GPR, fault.RAny, o.QualityTrials, true)
			if err != nil {
				return nil, err
			}
			var vsEDs, approxEDs []quality.ED
			for _, enc := range res.SDCOutputs() {
				faulty, fox, foy, err := stitch.DecodePrimary(enc)
				if err != nil {
					// A corrupted encoding that still differed from
					// golden: maximally corrupt output.
					faulty = nil
				}
				vsG := goldens[vs.AlgVS]
				ownG := goldens[alg]
				vsEDs = append(vsEDs, quality.ClassifyPlaced(
					vsG.Image, faulty, vsG.Bounds.MinX, vsG.Bounds.MinY, fox, foy, qcfg))
				approxEDs = append(approxEDs, quality.ClassifyPlaced(
					ownG.Image, faulty, ownG.Bounds.MinX, ownG.Bounds.MinY, fox, foy, qcfg))
			}
			out.Series = append(out.Series,
				Fig12Series{
					Input: seq.Name, Algorithm: alg, Baseline: "VS_golden",
					Curve: quality.NewCurve(vsEDs, MaxReportedED), SDCs: len(vsEDs),
				},
				Fig12Series{
					Input: seq.Name, Algorithm: alg, Baseline: "Approx_golden",
					Curve: quality.NewCurve(approxEDs, MaxReportedED), SDCs: len(approxEDs),
				})
		}
	}
	return out, nil
}

// Write prints each curve at a set of representative ED thresholds.
func (r *Fig12Result) Write(w io.Writer, o Options) {
	writeHeader(w, "Fig 12: SDC quality (cumulative fraction of SDCs with ED <= X)", o)
	thresholds := []int{0, 2, 5, 10, 20, 40}
	fmt.Fprintf(w, "%-8s %-8s %-14s %5s |", "input", "alg", "baseline", "SDCs")
	for _, t := range thresholds {
		fmt.Fprintf(w, " ED<=%-3d", t)
	}
	fmt.Fprintln(w)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-8s %-8s %-14s %5d |", s.Input, s.Algorithm, s.Baseline, s.SDCs)
		for _, t := range thresholds {
			fmt.Fprintf(w, " %6.2f ", s.Curve.FractionAtOrBelow(t))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nApprox_golden vs VS_golden offsets (the curve-shift of panels a/b):")
	for key, ed := range r.GoldenED {
		if ed.Egregious {
			fmt.Fprintf(w, "%-20s egregious (norm %.1f%%)\n", key, ed.Norm)
		} else {
			fmt.Fprintf(w, "%-20s ED %d (norm %.1f%%)\n", key, ed.Degree, ed.Norm)
		}
	}
	fmt.Fprintln(w, "paper shape: vs Approx_golden the curves nearly coincide; most SDCs are benign")
}

// Fig13Result reproduces Fig 13: the qualitative comparison of the
// default output, the VS_SM output, their absolute pixel difference,
// and the thresholded difference, plus the relative_l2_norm values the
// paper quotes in §VII (~37% Input 1, ~8% Input 2).
type Fig13Result struct {
	// Norms maps input name to the VS vs VS_SM relative_l2_norm.
	Norms map[string]float64
	// Files lists written images (empty when ImageDir unset).
	Files []string
}

// Fig13 compares baseline and VS_SM golden outputs.
func Fig13(o Options) (*Fig13Result, error) {
	o = o.withDefaults()
	out := &Fig13Result{Norms: make(map[string]float64)}
	for _, seq := range virat.Inputs(o.Preset) {
		baseRes, _, err := goldenRun(vs.AlgVS, seq, o.Seed)
		if err != nil {
			return nil, err
		}
		smRes, _, err := goldenRun(vs.AlgSM, seq, o.Seed)
		if err != nil {
			return nil, err
		}
		gp, fp := baseRes.Primary(), smRes.Primary()
		g, f := quality.PlacePair(gp.Image, fp.Image,
			gp.Bounds.MinX, gp.Bounds.MinY, fp.Bounds.MinX, fp.Bounds.MinY)
		out.Norms[seq.Name] = quality.RelativeL2Norm(g, f, quality.DefaultConfig())
		if o.ImageDir != "" {
			if err := os.MkdirAll(o.ImageDir, 0o755); err != nil {
				return nil, fmt.Errorf("experiments: create image dir: %w", err)
			}
			diff := imgproc.AbsDiff(g, f)
			thr := imgproc.Threshold(diff, quality.DiffThreshold)
			for _, im := range []struct {
				name string
				img  *imgproc.Gray
			}{{"a_default", g}, {"b_vssm", f}, {"c_absdiff", diff}, {"d_thresholded", thr}} {
				path := filepath.Join(o.ImageDir, fmt.Sprintf("fig13_%s_%s.pgm", seq.Name, im.name))
				if err := imgproc.SavePGM(path, im.img); err != nil {
					return nil, err
				}
				out.Files = append(out.Files, path)
			}
		}
	}
	return out, nil
}

// Write prints the norm values and the written files.
func (r *Fig13Result) Write(w io.Writer, o Options) {
	writeHeader(w, "Fig 13: VS vs VS_SM output comparison", o)
	for _, input := range sortedKeys(r.Norms) {
		norm := r.Norms[input]
		fmt.Fprintf(w, "%-8s relative_l2_norm(VS, VS_SM) = %.1f%%\n", input, norm)
	}
	fmt.Fprintln(w, "paper: ~37% for Input 1, ~8% for Input 2 — large metric values despite visually acceptable output")
	for _, f := range r.Files {
		fmt.Fprintf(w, "wrote %s\n", f)
	}
}
