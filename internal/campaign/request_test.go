package campaign

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// jsonFields lists a struct type's JSON field names in field order.
func jsonFields(v any) []string {
	t := reflect.TypeOf(v)
	var out []string
	for i := 0; i < t.NumField(); i++ {
		out = append(out, strings.Split(t.Field(i).Tag.Get("json"), ",")[0])
	}
	return out
}

// TestWireFieldPin pins the JSON field names of the campaign request
// and report. The request is the wire form vsd (through its
// CampaignSpec) and the fabric submit endpoint accept, so its names
// are exactly the fabric's historical campaign spec. The report
// replaced three result types — vsd's campaign result and the fabric's
// static and adaptive results, each listed here as it was — and must
// carry every field of each, with its stratum carrying every field of
// both historical stratum types.
func TestWireFieldPin(t *testing.T) {
	request := []string{"algorithm", "scenario", "summarizer", "class", "region", "input", "scale", "frames",
		"trials", "seed", "workers", "keep_sdc", "max_sdc", "adaptive", "precision", "confidence", "round_size", "max_trials"}
	if got := jsonFields(Request{}); !slices.Equal(got, request) {
		t.Errorf("Request JSON fields\n got %q\nwant %q", got, request)
	}
	report := []string{"scenario", "summarizer", "algorithm", "input", "class", "region", "trials", "completed",
		"resumed", "shards", "total_taps", "golden_steps", "counts", "rates", "crash_split", "reg_chi2", "curve_knee",
		"sdc_kept", "elapsed_sec", "trials_per_sec", "adaptive", "precision", "confidence", "rounds", "fixed_budget",
		"converged", "strata"}
	if got := jsonFields(Report{}); !slices.Equal(got, report) {
		t.Errorf("Report JSON fields\n got %q\nwant %q", got, report)
	}
	stratum := []string{"region", "bits", "population", "trials", "counts", "half_width", "done"}
	if got := jsonFields(StratumReport{}); !slices.Equal(got, stratum) {
		t.Errorf("StratumReport JSON fields\n got %q\nwant %q", got, stratum)
	}

	replaced := map[string][]string{
		"vsd campaign result": {"scenario", "summarizer", "algorithm", "input", "class", "region", "trials",
			"completed", "resumed", "total_taps", "golden_steps", "counts", "rates", "crash_split", "elapsed_sec",
			"trials_per_sec", "adaptive", "precision", "confidence", "rounds", "fixed_budget", "converged", "strata"},
		"fabric static result": {"class", "region", "trials", "shards", "completed", "total_taps", "golden_steps",
			"counts", "rates", "crash_split", "reg_chi2", "curve_knee", "sdc_kept", "elapsed_sec"},
		"fabric adaptive result": {"class", "region", "precision", "confidence", "rounds", "trials", "fixed_budget",
			"converged", "rates", "strata", "elapsed_sec"},
		"vsd stratum":    {"region", "bits", "population", "trials", "half_width", "done"},
		"fabric stratum": {"region", "bits", "population", "trials", "counts", "half_width", "done"},
	}
	for name, fields := range replaced {
		have := report
		if strings.HasSuffix(name, "stratum") {
			have = stratum
		}
		for _, f := range fields {
			if !slices.Contains(have, f) {
				t.Errorf("%s field %q dropped", name, f)
			}
		}
	}
}
