package campaign

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// TestVSConstructorKeyUnchanged pins the golden-cache key of the
// historical VS constructor: the registry refactor must not silently
// re-key cached goldens (vsd's cross-job cache hits depend on it).
func TestVSConstructorKeyUnchanged(t *testing.T) {
	p := virat.TestScale()
	p.Frames = 4
	seq, err := virat.ParseInput(2, p)
	if err != nil {
		t.Fatal(err)
	}
	w := VS(vs.AlgKDS, seq, 0x5EED)
	want := fmt.Sprintf("vs:%s|seed=%d|%s:%dx%dx%d", vs.AlgKDS, 0x5EED,
		seq.Name, p.Frames, p.FrameW, p.FrameH)
	if w.Key != want {
		t.Errorf("VS workload key %q, want historical %q", w.Key, want)
	}
	if w.Name != "Input2" {
		t.Errorf("VS workload name %q, want Input2", w.Name)
	}
}

// TestCellIdentityMatchesVSConstructor proves the registry's default
// cell is the historical workload: same name, same key, and a golden
// capture with byte-identical output.
func TestCellIdentityMatchesVSConstructor(t *testing.T) {
	p := virat.TestScale()
	p.Frames = 6
	seq, err := virat.ParseInput(2, p)
	if err != nil {
		t.Fatal(err)
	}
	legacy := VS(vs.AlgVS, seq, 0x5EED)
	cellW, err := Cell{}.Workload(2, p, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	if cellW.Key != legacy.Key || cellW.Name != legacy.Name {
		t.Errorf("identity cell (%q,%q) differs from legacy constructor (%q,%q)",
			cellW.Name, cellW.Key, legacy.Name, legacy.Key)
	}
	ga, err := fault.CaptureGoldenStaged(legacy.Staged)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := fault.CaptureGoldenStaged(cellW.Staged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga.Output, gb.Output) {
		t.Error("identity cell golden output differs from legacy constructor")
	}
}

func TestCellString(t *testing.T) {
	if got := (Cell{}).String(); got != "identity/vs/VS" {
		t.Errorf("zero cell = %q, want identity/vs/VS", got)
	}
	c := Cell{Scenario: "fog+blocking", Summarizer: "storyboard", Algorithm: "VS_SM"}
	if got := c.String(); got != "fog+blocking/storyboard/VS_SM" {
		t.Errorf("cell label %q", got)
	}
}

func TestCellWorkloadErrors(t *testing.T) {
	p := virat.TestScale()
	p.Frames = 4
	bad := []Cell{
		{Scenario: "rain"},
		{Summarizer: "collage"},
		{Algorithm: "VS_XX"},
	}
	for _, c := range bad {
		if _, err := c.Workload(2, p, 1); err == nil {
			t.Errorf("cell %+v resolved, want error", c)
		}
	}
	if _, err := (Cell{}).Workload(9, p, 1); err == nil {
		t.Error("input 9 resolved, want error")
	}
	if _, err := (MatrixSpec{}).Expand(); err == nil {
		t.Error("empty matrix expanded, want error")
	}
}

// TestMatrixRun runs a small scenario × summarizer matrix through the
// engine and checks each cell produces a complete campaign with
// distinct workload identities and well-formed outcome rates.
func TestMatrixRun(t *testing.T) {
	p := virat.TestScale()
	p.Frames = 6
	ms := MatrixSpec{
		Cells: []Cell{
			{},
			{Scenario: "fog"},
			{Scenario: "fog", Summarizer: "storyboard"},
			{Summarizer: "storyboard"},
		},
		Input:   2,
		Preset:  p,
		AppSeed: 0x5EED,
		Spec: Spec{
			Class:  fault.GPR,
			Region: fault.RAny,
			Trials: 20,
			Seed:   11,
		},
	}
	specs, err := ms.Expand()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]Cell{}
	for i, spec := range specs {
		if prev, dup := keys[spec.Workload.Key]; dup {
			t.Fatalf("cells %s and %s share key %q", prev, ms.Cells[i], spec.Workload.Key)
		}
		keys[spec.Workload.Key] = ms.Cells[i]
		if spec.Workload.Staged == nil {
			t.Errorf("cell %s has no staged view", ms.Cells[i])
		}
	}
	var runner Runner
	runner.Goldens = NewGoldenCache(8)
	results, err := runner.RunMatrix(context.Background(), ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ms.Cells) {
		t.Fatalf("%d cell results, want %d", len(results), len(ms.Cells))
	}
	for _, cr := range results {
		if cr.Result.Fault.Completed != ms.Spec.Trials {
			t.Errorf("cell %s completed %d/%d trials", cr.Cell, cr.Result.Fault.Completed, ms.Spec.Trials)
		}
		var sum float64
		for _, r := range cr.Result.Fault.Rates() {
			if r < 0 || r > 1 {
				t.Errorf("cell %s rate %v outside [0,1]", cr.Cell, r)
			}
			sum += r
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("cell %s rates sum to %v", cr.Cell, sum)
		}
	}
}
