package campaign

import (
	"context"
	"fmt"

	"vsresil/internal/summarize"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// Cell names one workload of the (scenario, summarizer, algorithm)
// matrix in wire-friendly string form: the scenario expression
// virat.ParseScenario accepts ("" = identity), the backend token
// summarize.Parse accepts ("" = vs), and the VS variant name
// vs.ParseAlgorithm accepts ("" = VS; it applies only to the vs
// backend). Every surface — CLIs, the vsd job API, the fabric wire
// spec — names workloads this way and resolves them through
// Cell.Workload, so a matrix campaign means the same thing everywhere.
type Cell struct {
	Scenario   string
	Summarizer string
	Algorithm  string
}

// String returns the canonical cell label used in reports and metrics,
// with defaults made explicit ("identity/vs/VS").
func (c Cell) String() string {
	sc := c.Scenario
	if sc == "" {
		sc = "identity"
	}
	sum := c.Summarizer
	if sum == "" {
		sum = "vs"
	}
	alg := c.Algorithm
	if alg == "" {
		alg = vs.AlgVS.String()
	}
	return sc + "/" + sum + "/" + alg
}

// Canonical returns the cell's labels as reports and metrics show them:
// each axis parsed and named canonically ("identity", "vs", "VS" for
// the defaults; "Identity+fog" becomes "fog"). A token that does not
// parse is kept as given — a custom fabric WorkloadBuilder may key its
// own workloads off it.
func (c Cell) Canonical() Cell {
	if sc, err := virat.ParseScenario(c.Scenario); err == nil {
		c.Scenario = sc.Name
	}
	if sum, err := summarize.Parse(c.Summarizer, vs.DefaultConfig(vs.AlgVS)); err == nil {
		c.Summarizer = sum.Name()
	}
	if alg, err := vs.ParseAlgorithm(c.Algorithm); err == nil {
		c.Algorithm = alg.String()
	}
	return c
}

// Workload resolves the cell against a numbered paper input at the
// given preset: parse the three axes, generate the degraded sequence,
// and bind the summarizer to its frames. appSeed fixes the workload's
// stochastic choices exactly as the historical VS constructor did.
// The identity/vs cell reproduces that constructor's workload — same
// name, same golden-cache key, same bytes.
func (c Cell) Workload(input int, p virat.Preset, appSeed uint64) (Workload, error) {
	sc, err := virat.ParseScenario(c.Scenario)
	if err != nil {
		return Workload{}, err
	}
	sum, err := c.Backend(appSeed)
	if err != nil {
		return Workload{}, err
	}
	seq, err := virat.GenerateInput(input, p, sc)
	if err != nil {
		return Workload{}, err
	}
	return Summarize(sum, seq), nil
}

// Backend resolves the cell's summarizer and algorithm axes into the
// backend, with appSeed fixing its stochastic choices — the binding
// Workload applies to generated frames and vsd to uploaded ones.
func (c Cell) Backend(appSeed uint64) (summarize.Summarizer, error) {
	alg, err := vs.ParseAlgorithm(c.Algorithm)
	if err != nil {
		return nil, err
	}
	cfg := vs.DefaultConfig(alg)
	cfg.Seed = appSeed
	return summarize.Parse(c.Summarizer, cfg)
}

// Summarize binds a resolved summarizer backend to a generated
// sequence as a campaign workload. The golden-cache key is derived
// from the (summarizer config, sequence identity) tuple; the sequence
// name carries the scenario suffix, so every matrix cell caches its
// golden run under a distinct key while the identity/vs cell keys
// exactly as the pre-matrix constructors did.
func Summarize(sum summarize.Summarizer, seq *virat.Sequence) Workload {
	frames := seq.Frames()
	key := fmt.Sprintf("%s|%s:%dx%dx%d", sum.Key(),
		seq.Name, len(frames), seq.FrameW, seq.FrameH)
	return SummarizeApp(sum, frames, seq.Name, key)
}

// MatrixSpec declares a campaign cross-product: every cell runs the
// same fault model (class, region, trials, seed) on the same generated
// input, so per-cell outcome rates are directly comparable.
type MatrixSpec struct {
	// Cells are the matrix points to run, in order.
	Cells []Cell
	// Input is the paper input number (1 or 2).
	Input int
	// Preset scales the generated input.
	Preset virat.Preset
	// AppSeed fixes each workload's stochastic choices.
	AppSeed uint64
	// Spec is the fault-model and execution template every cell runs
	// with; its Workload field is ignored and replaced per cell.
	Spec Spec
}

// Expand resolves every cell into a runnable Spec. The returned Specs
// feed Runner.Run, Runner.RunAdaptive and the fabric exactly like
// hand-built ones — the matrix adds no execution path.
func (ms MatrixSpec) Expand() ([]Spec, error) {
	if len(ms.Cells) == 0 {
		return nil, fmt.Errorf("campaign: matrix has no cells")
	}
	specs := make([]Spec, 0, len(ms.Cells))
	for _, cell := range ms.Cells {
		w, err := cell.Workload(ms.Input, ms.Preset, ms.AppSeed)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", cell, err)
		}
		spec := ms.Spec
		spec.Workload = w
		specs = append(specs, spec)
	}
	return specs, nil
}

// CellResult pairs one matrix cell with its campaign result.
type CellResult struct {
	Cell   Cell
	Result *Result
}

// RunMatrix executes every cell of the matrix sequentially (each
// campaign parallelizes internally across its workers) and returns the
// per-cell results in cell order. On error the completed prefix of
// cells is returned alongside it.
func (r *Runner) RunMatrix(ctx context.Context, ms MatrixSpec) ([]CellResult, error) {
	specs, err := ms.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]CellResult, 0, len(specs))
	for i, spec := range specs {
		res, err := r.Run(ctx, spec)
		if err != nil {
			return out, fmt.Errorf("campaign: cell %s: %w", ms.Cells[i], err)
		}
		out = append(out, CellResult{Cell: ms.Cells[i], Result: res})
	}
	return out, nil
}
