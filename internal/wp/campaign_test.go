package wp_test

import (
	"context"
	"testing"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/virat"
	"vsresil/internal/wp"
)

func TestWPCampaignClassifies(t *testing.T) {
	b := wp.Default(virat.TestScale())
	var runner campaign.Runner
	run, err := runner.Run(context.Background(), campaign.Spec{
		Workload: campaign.NewWorkload("WP", "", b.App()),
		Class:    fault.GPR, Region: fault.RAny, Trials: 150, Seed: 3, Workers: 4,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	res := run.Fault
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 150 {
		t.Errorf("classified %d trials", total)
	}
	// WP has no downstream computation: its landed faults should
	// produce visible SDC or crash more often than full VS would in
	// the same code (tested end-to-end in the experiments package);
	// here just require that some non-masked outcomes exist.
	if res.Counts[fault.OutcomeMask] == total {
		t.Error("every WP fault masked — implausible for a kernel-only app")
	}
}
