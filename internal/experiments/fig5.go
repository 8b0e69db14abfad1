package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"vsresil/internal/energy"
	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/profilesim"
	"vsresil/internal/stitch"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// goldenRun executes one algorithm variant on one input fault-free,
// returning the result and the machine with its op accounting.
func goldenRun(alg vs.Algorithm, seq *virat.Sequence, seed uint64) (*stitch.Result, *fault.Machine, error) {
	frames := seq.Frames()
	cfg := vs.DefaultConfig(alg)
	cfg.Seed = seed
	app := vs.New(cfg, len(frames))
	m := fault.New()
	res, err := app.Run(frames, m)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %v on %s: %w", alg, seq.Name, err)
	}
	return res, m, nil
}

// Fig5Row is one bar group of Fig 5: a variant's metrics normalized to
// the same-input baseline.
type Fig5Row struct {
	Input     string
	Algorithm vs.Algorithm
	Norm      energy.Normalized
}

// Fig5Result reproduces Fig 5: IPC, execution time and energy of
// VS_RFD, VS_KDS and VS_SM normalized to baseline VS per input.
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5 runs all four variants on both inputs and normalizes the
// energy-model metrics to each input's baseline.
func Fig5(o Options) (*Fig5Result, error) {
	o = o.withDefaults()
	model := energy.DefaultModel()
	out := &Fig5Result{}
	for _, seq := range virat.Inputs(o.Preset) {
		_, baseM, err := goldenRun(vs.AlgVS, seq, o.Seed)
		if err != nil {
			return nil, err
		}
		base := model.Measure(baseM)
		for _, alg := range vs.Algorithms() {
			_, m, err := goldenRun(alg, seq, o.Seed)
			if err != nil {
				return nil, err
			}
			n, err := energy.Normalize(model.Measure(m), base)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, Fig5Row{Input: seq.Name, Algorithm: alg, Norm: n})
		}
	}
	return out, nil
}

// Write prints the figure's series.
func (r *Fig5Result) Write(w io.Writer, o Options) {
	writeHeader(w, "Fig 5: IPC / execution time / energy, normalized to baseline VS", o)
	fmt.Fprintf(w, "%-8s %-8s %8s %8s %8s\n", "input", "alg", "IPC", "time", "energy")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %-8s %8.3f %8.3f %8.3f\n",
			row.Input, row.Algorithm, row.Norm.IPC, row.Norm.Time, row.Norm.Energy)
	}
}

// Fig6Result reproduces Fig 6: the output panoramas of every variant
// on both inputs, written as PGM images for visual comparison.
type Fig6Result struct {
	// Files lists the written image paths (empty if ImageDir unset).
	Files []string
	// Sizes records primary panorama dimensions per (input, variant).
	Sizes map[string][2]int
}

// Fig6 renders every variant's primary panorama.
func Fig6(o Options) (*Fig6Result, error) {
	o = o.withDefaults()
	out := &Fig6Result{Sizes: make(map[string][2]int)}
	for _, seq := range virat.Inputs(o.Preset) {
		for _, alg := range vs.Algorithms() {
			res, _, err := goldenRun(alg, seq, o.Seed)
			if err != nil {
				return nil, err
			}
			prim := res.Primary()
			key := seq.Name + "/" + alg.String()
			out.Sizes[key] = [2]int{prim.Image.W, prim.Image.H}
			if o.ImageDir != "" {
				if err := os.MkdirAll(o.ImageDir, 0o755); err != nil {
					return nil, fmt.Errorf("experiments: create image dir: %w", err)
				}
				path := filepath.Join(o.ImageDir, fmt.Sprintf("fig6_%s_%s.pgm", seq.Name, alg))
				if err := imgproc.SavePGM(path, prim.Image); err != nil {
					return nil, err
				}
				out.Files = append(out.Files, path)
			}
		}
	}
	return out, nil
}

// Write prints the panorama inventory.
func (r *Fig6Result) Write(w io.Writer, o Options) {
	writeHeader(w, "Fig 6: output panoramas per algorithm and input", o)
	for _, key := range sortedKeys(r.Sizes) {
		size := r.Sizes[key]
		fmt.Fprintf(w, "%-24s %dx%d\n", key, size[0], size[1])
	}
	for _, f := range r.Files {
		fmt.Fprintf(w, "wrote %s\n", f)
	}
}

// Fig8Result reproduces Fig 8: the execution-time profile by function.
type Fig8Result struct {
	Profile profilesim.Profile
}

// Fig8 profiles the baseline VS on Input 1.
func Fig8(o Options) (*Fig8Result, error) {
	o = o.withDefaults()
	seq := virat.Input1(o.Preset)
	_, m, err := goldenRun(vs.AlgVS, seq, o.Seed)
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Profile: profilesim.Collect(m, energy.DefaultModel())}, nil
}

// Write prints the profile table.
func (r *Fig8Result) Write(w io.Writer, o Options) {
	writeHeader(w, "Fig 8: execution profile of the VS application", o)
	for _, f := range r.Profile.ByFunction {
		fmt.Fprintf(w, "%-24s %6.1f%%\n", f.Region, f.Fraction*100)
	}
	fmt.Fprintf(w, "%-24s %6.1f%%  (paper: 54.4%%)\n", "warp kernels total", r.Profile.WarpFraction*100)
	fmt.Fprintf(w, "%-24s %6.1f%%  (paper: ~68%%)\n", "vision library total", r.Profile.LibraryFraction*100)
}

// sortedKeys returns m's keys in order, so a table printed from a map
// reads the same on every run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
