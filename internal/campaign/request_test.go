package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vsresil/internal/faulttest"
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

// boundsRows are requests at and one past each wire limit; want names
// the rejected field ("" = valid). TestRequestValidateBounds checks
// them and FuzzRequest starts from them.
var boundsRows = map[string]struct {
	req  Request
	want string
}{
	"trials at limit":   {Request{Trials: TrialLimit}, ""},
	"trials over":       {Request{Trials: TrialLimit + 1}, "trials"},
	"workers at limit":  {Request{Trials: 10, Workers: WorkerLimit}, ""},
	"workers over":      {Request{Trials: 1000000, Workers: 1000000}, "workers"},
	"workers negative":  {Request{Trials: 10, Workers: -1}, "workers"},
	"frames at limit":   {Request{Trials: 10, Frames: FrameLimit}, ""},
	"frames over":       {Request{Trials: 10, Frames: FrameLimit + 1}, "frames"},
	"adaptive cap over": {Request{Adaptive: true, MaxTrials: TrialLimit + 1}, "trial cap"},
	"adaptive trials":   {Request{Adaptive: true, Trials: TrialLimit + 1}, "trials"},
}

// TestRequestValidateBounds checks the wire limits on every count a
// request carries, at the limit and one past it.
func TestRequestValidateBounds(t *testing.T) {
	for name, tc := range boundsRows {
		err := tc.req.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, tc.want)
		}
	}
}

// FuzzRequest decodes arbitrary JSON into a Request the way the fabric
// submit endpoint decodes its spec (unknown fields rejected) and
// validates it. Nothing may panic, and every accepted request stays
// inside the wire limits and translates to a Spec on a toy workload.
// No campaign runs.
func FuzzRequest(f *testing.F) {
	for _, tc := range boundsRows {
		data, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"adaptive":true,"precision":0.1,"confidence":0.9,"round_size":64,"max_trials":4096}`))
	f.Add([]byte(`{"trials":10,"class":"fpr","region":"remapBilinear","scenario":"lowlight+fog","summarizer":"storyboard"}`))
	f.Add([]byte(`{"trials":10,"shards":4}`))
	w := NewWorkload("toy", "", faulttest.ToyApp)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&r) != nil || r.Validate() != nil {
			return
		}
		if r.Trials > TrialLimit || r.RoundSize > TrialLimit || r.MaxTrials > TrialLimit {
			t.Fatalf("accepted %+v: a trial count over %d", r, TrialLimit)
		}
		if r.Workers > WorkerLimit || r.Frames > FrameLimit {
			t.Fatalf("accepted %+v: workers over %d or frames over %d", r, WorkerLimit, FrameLimit)
		}
		spec, err := r.Spec(w)
		if err != nil {
			t.Fatalf("accepted %+v, but Spec failed: %v", r, err)
		}
		if !r.Adaptive {
			if err := spec.validate(); err != nil {
				t.Fatalf("accepted %+v, but its Spec is invalid: %v", r, err)
			}
		}
	})
}
