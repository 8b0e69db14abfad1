package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLedger writes a two-section ledger and returns its path.
func writeLedger(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const ledgerBody = `{
  "before": {
    "BenchmarkCampaignThroughput": {"ns/op": 100, "trials/s": 90, "B/op": 1000},
    "BenchmarkRetired": {"ns/op": 5}
  },
  "after": {
    "BenchmarkCampaignThroughput": {"ns/op": 200, "trials/s": 40, "B/op": 1000},
    "BenchmarkNew": {"ns/op": 7, "widgets": 3}
  }
}`

// TestCompareAdvisory checks that without -gate the comparison reports
// regressions and one-sided entries but never fails.
func TestCompareAdvisory(t *testing.T) {
	path := writeLedger(t, ledgerBody)
	if err := runCompare([]string{"-in", path}); err != nil {
		t.Fatalf("advisory compare failed: %v", err)
	}
}

// TestCompareGate checks that -gate turns matching regressions into a
// non-zero exit, while non-matching benchmarks stay advisory.
func TestCompareGate(t *testing.T) {
	path := writeLedger(t, ledgerBody)
	err := runCompare([]string{"-in", path, "-gate", "CampaignThroughput", "-threshold", "0.10"})
	if err == nil {
		t.Fatal("gated compare passed despite a 2x ns/op regression")
	}
	if !strings.Contains(err.Error(), "gated regression") {
		t.Fatalf("gate failure = %v, want gated regression report", err)
	}
	// Gate on a benchmark that did not regress beyond threshold.
	relaxed := writeLedger(t, `{
  "before": {"BenchmarkCampaignThroughput": {"trials/s": 100}},
  "after":  {"BenchmarkCampaignThroughput": {"trials/s": 95}}
}`)
	if err := runCompare([]string{"-in", relaxed, "-gate", "CampaignThroughput", "-threshold", "0.10"}); err != nil {
		t.Fatalf("gated compare within threshold failed: %v", err)
	}
}

// TestCompareGateMatchesNothing checks the gate refuses to vacuously
// pass when its pattern selects no gateable metric.
func TestCompareGateMatchesNothing(t *testing.T) {
	path := writeLedger(t, ledgerBody)
	err := runCompare([]string{"-in", path, "-gate", "NoSuchBenchmark"})
	if err == nil || !strings.Contains(err.Error(), "matched no gateable metrics") {
		t.Fatalf("vacuous gate = %v, want matched-nothing error", err)
	}
}

// TestCompareOneSided checks that benchmarks or counters present in
// only one section are tolerated, including when the sections share
// nothing gateable.
func TestCompareOneSided(t *testing.T) {
	path := writeLedger(t, `{
  "before": {"BenchmarkOld": {"ns/op": 5}},
  "after":  {"BenchmarkNew": {"ns/op": 7}}
}`)
	if err := runCompare([]string{"-in", path}); err != nil {
		t.Fatalf("disjoint sections should be advisory-clean, got: %v", err)
	}
}

// TestMissingLedgerFiles checks that a nonexistent -in path produces
// an error naming the missing file and suggesting the fix, for both
// subcommands.
func TestMissingLedgerFiles(t *testing.T) {
	gone := filepath.Join(t.TempDir(), "nope.json")
	err := runCompare([]string{"-in", gone})
	if err == nil || !strings.Contains(err.Error(), gone) || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("compare on missing ledger = %v, want error naming %s", err, gone)
	}
	err = runParse([]string{"-in", gone})
	if err == nil || !strings.Contains(err.Error(), gone) || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("parse on missing input = %v, want error naming %s", err, gone)
	}
}

// TestProcsRecordedAndCompared checks that parse keeps the GOMAXPROCS
// suffix as the informational "procs" unit (1 when go test omits it),
// and that compare warns on a procs mismatch but fails only under a
// gate that covers the mismatched benchmark.
func TestProcsRecordedAndCompared(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.out")
	ledger := filepath.Join(dir, "bench.json")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(out, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BenchmarkCampaignThroughput-4   3   100 ns/op   90 trials/s\nBenchmarkPipelineBaseline   3   50 ns/op\n")
	if err := runParse([]string{"-label", "before", "-in", out, "-out", ledger}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	var got Ledger
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if p := got["before"]["BenchmarkCampaignThroughput"][procsUnit]; p != 4 {
		t.Errorf("procs for -4 suffix = %v, want 4", p)
	}
	if p := got["before"]["BenchmarkPipelineBaseline"][procsUnit]; p != 1 {
		t.Errorf("procs without suffix = %v, want 1", p)
	}

	write("BenchmarkCampaignThroughput-2   3   100 ns/op   90 trials/s\nBenchmarkPipelineBaseline-2   3   50 ns/op\n")
	if err := runParse([]string{"-label", "after", "-in", out, "-out", ledger}); err != nil {
		t.Fatal(err)
	}
	if err := runCompare([]string{"-in", ledger}); err != nil {
		t.Fatalf("advisory compare with a procs mismatch failed: %v", err)
	}
	err = runCompare([]string{"-in", ledger, "-gate", "CampaignThroughput"})
	if err == nil || !strings.Contains(err.Error(), "procs") {
		t.Fatalf("gated compare across procs = %v, want a procs mismatch failure", err)
	}

	write("BenchmarkCampaignThroughput-4   3   100 ns/op   90 trials/s\nBenchmarkPipelineBaseline-2   3   50 ns/op\n")
	if err := runParse([]string{"-label", "after", "-in", out, "-out", ledger}); err != nil {
		t.Fatal(err)
	}
	if err := runCompare([]string{"-in", ledger, "-gate", "CampaignThroughput"}); err != nil {
		t.Fatalf("gated compare at equal gated procs failed: %v", err)
	}
}
