package experiments

import (
	"context"
	"fmt"
	"io"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

// MatrixCells returns the default scenario × summarizer cross-product:
// four capture scenarios (the clean identity baseline plus three
// degradation chains) against both summarizer backends, all on the
// baseline VS variant. This is the repo's first result outside the
// paper's single-workload design point.
func MatrixCells() []campaign.Cell {
	scenarios := []string{"identity", "fog", "lowlight", "blocking+jitter"}
	summarizers := []string{"vs", "storyboard"}
	cells := make([]campaign.Cell, 0, len(scenarios)*len(summarizers))
	for _, sum := range summarizers {
		for _, sc := range scenarios {
			cells = append(cells, campaign.Cell{Scenario: sc, Summarizer: sum})
		}
	}
	return cells
}

// MatrixCellResult is one cell's outcome-rate row.
type MatrixCellResult struct {
	Cell      campaign.Cell
	Workload  string
	Completed int
	Rates     [fault.NumOutcomes]float64
}

// MatrixResult holds the per-cell outcome rates of the scenario ×
// summarizer campaign matrix.
type MatrixResult struct {
	Input int
	Cells []MatrixCellResult
}

// Matrix runs a GPR fault-injection campaign on every cell of the
// default scenario × summarizer matrix (Input 2) and reports per-cell
// outcome rates — does the approximation-vs-SDC tradeoff the paper
// measures on one workload hold across capture conditions and
// summarizer families?
func Matrix(ctx context.Context, o Options) (*MatrixResult, error) {
	return MatrixOn(ctx, o, MatrixCells())
}

// MatrixOn runs the matrix campaign over an explicit cell list.
func MatrixOn(ctx context.Context, o Options, cells []campaign.Cell) (*MatrixResult, error) {
	o = o.withDefaults()
	const input = 2
	ms := campaign.MatrixSpec{
		Cells:   cells,
		Input:   input,
		Preset:  o.Preset,
		AppSeed: o.Seed,
		Spec: campaign.Spec{
			Class:   fault.GPR,
			Region:  fault.RAny,
			Trials:  o.Trials,
			Seed:    o.Seed + 33577,
			Workers: o.Workers,
		},
	}
	results, err := runner.RunMatrix(ctx, ms)
	if err != nil {
		return nil, err
	}
	out := &MatrixResult{Input: input}
	for _, cr := range results {
		out.Cells = append(out.Cells, MatrixCellResult{
			Cell:      cr.Cell,
			Workload:  cr.Result.Spec.Workload.Name,
			Completed: cr.Result.Fault.Completed,
			Rates:     cr.Result.Fault.Rates(),
		})
	}
	return out, nil
}

// Write prints the per-cell outcome-rate table.
func (r *MatrixResult) Write(w io.Writer, o Options) {
	writeHeader(w, "Matrix: scenario x summarizer resiliency (GPR, Input 2)", o)
	fmt.Fprintf(w, "%-28s %-20s %8s %8s %8s %8s\n",
		"cell", "workload", "Mask", "Crash", "SDC", "Hang")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-28s %-20s %8.3f %8.3f %8.3f %8.3f\n",
			c.Cell, c.Workload,
			c.Rates[fault.OutcomeMask], c.Rates[fault.OutcomeCrash],
			c.Rates[fault.OutcomeSDC], c.Rates[fault.OutcomeHang])
	}
	fmt.Fprintln(w, "identity/vs cells reproduce the paper's single-workload profile; the rest are new territory")
}
