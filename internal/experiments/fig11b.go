package experiments

import (
	"context"
	"fmt"
	"io"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// Fig11bResult reproduces the hot-function case study (Fig 11b):
// outcome rates of GPR injections restricted to the two hot functions
// (warpPerspectiveInvoker and remapBilinear), observed at the end of
// the standalone WP toy benchmark vs the full VS application.
type Fig11bResult struct {
	// Rows are keyed "app/function".
	Rows []Fig11bRow
}

// Fig11bRow is one bar group of Fig 11b.
type Fig11bRow struct {
	App      string
	Function fault.Region
	Rates    [fault.NumOutcomes]float64
}

// Fig11b runs region-scoped campaigns on WP and on VS.
func Fig11b(ctx context.Context, o Options) (*Fig11bResult, error) {
	o = o.withDefaults()
	out := &Fig11bResult{}
	regions := []fault.Region{fault.RWarpInvoker, fault.RRemapBilinear}

	// Standalone WP benchmark. One golden capture serves both
	// region-scoped campaigns — the golden run is fault-free, so it is
	// independent of the injection region; the engine's cache shares
	// it.
	wpWorkload := campaign.WP(o.Preset)
	for _, region := range regions {
		res, err := runner.Run(ctx, campaign.Spec{
			Workload: wpWorkload,
			Class:    fault.GPR,
			Region:   region,
			Trials:   o.Trials,
			Seed:     o.Seed + uint64(region),
			Workers:  o.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: WP campaign %v: %w", region, err)
		}
		out.Rows = append(out.Rows, Fig11bRow{App: "WP", Function: region, Rates: res.Fault.Rates()})
	}

	// Full VS application, same functions.
	seq := virat.Input1(o.Preset)
	for _, region := range regions {
		res, err := campaignFor(ctx, o, vs.AlgVS, seq, fault.GPR, region, o.Trials, false)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig11bRow{App: "VS", Function: region, Rates: res.Rates()})
	}
	return out, nil
}

// Write prints the comparison table.
func (r *Fig11bResult) Write(w io.Writer, o Options) {
	writeHeader(w, "Fig 11b: hot-function injections — standalone WP vs full VS", o)
	fmt.Fprintf(w, "%-4s %-24s %8s %8s %8s %8s\n", "app", "function", "Mask", "Crash", "SDC", "Hang")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-4s %-24s %8.3f %8.3f %8.3f %8.3f\n",
			row.App, row.Function,
			row.Rates[fault.OutcomeMask], row.Rates[fault.OutcomeCrash],
			row.Rates[fault.OutcomeSDC], row.Rates[fault.OutcomeHang])
	}
	fmt.Fprintln(w, "paper shape: the full VS masks more of the same-function faults than standalone WP")
	fmt.Fprintln(w, "(compositional masking: later frames stitch over corrupted warp output)")
}
