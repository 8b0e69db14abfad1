// Command benchdiff turns `go test -bench` output into a committed
// JSON ledger and gates performance regressions against it.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x . > bench.out
//	benchdiff parse -label after -in bench.out -out BENCH_2.json
//	benchdiff compare -in BENCH_2.json -before before -after after
//
// parse merges one labeled section (e.g. "before", "after") into the
// JSON file, preserving the other sections. compare prints the
// percentage delta of every metric across the union of both sections'
// benchmarks — entries present on only one side (a benchmark or
// counter that was added or retired) are reported, not errors. By
// default the report is advisory and compare always exits zero; pass
// -gate with a benchmark-name regexp to fail on regressions beyond
// -threshold in the gated set: ns/op, B/op and allocs/op may not grow,
// and rate metrics such as trials/s may not shrink.
//
// parse also records each benchmark's GOMAXPROCS (the `-N` name
// suffix, 1 when go test omits it) as the informational unit "procs".
// compare warns when the two sections ran a benchmark at different
// procs — single-core and multi-core numbers do not compare — and with
// -gate such a mismatch on a gated benchmark fails the comparison.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("benchdiff "+name, flag.ContinueOnError)
}

// Ledger is the JSON file layout: label -> benchmark -> unit -> value.
type Ledger map[string]map[string]map[string]float64

// lowerBetter units must not increase; higherBetter units must not
// decrease. Units in neither set (e.g. modelled-instructions, which
// counts work, not speed) are informational and never gate.
var (
	lowerBetter  = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true}
	higherBetter = map[string]bool{"trials/s": true, "MB/s": true}
)

// procsUnit is the ledger unit holding a benchmark's GOMAXPROCS.
const procsUnit = "procs"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: benchdiff parse|compare [flags]")
	}
	switch args[0] {
	case "parse":
		return runParse(args[1:])
	case "compare":
		return runCompare(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want parse or compare)", args[0])
	}
}

func runParse(args []string) error {
	fs := newFlagSet("parse")
	label := fs.String("label", "after", "section to write the parsed results under")
	in := fs.String("in", "", "benchmark output file (\"\" = stdin)")
	out := fs.String("out", "BENCH_2.json", "JSON ledger to merge into")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f := os.Stdin
	if *in != "" {
		var err error
		if f, err = os.Open(*in); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("benchmark input %s does not exist; save 'go test -bench' output there or pipe it on stdin", *in)
			}
			return err
		}
		defer f.Close()
	}
	section, err := parseBench(f)
	if err != nil {
		return err
	}
	if len(section) == 0 {
		return fmt.Errorf("no Benchmark lines found in input")
	}

	ledger := Ledger{}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &ledger); err != nil {
			return fmt.Errorf("%s: %w", *out, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	ledger[*label] = section

	enc, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: wrote %d benchmarks to %s[%q]\n", len(section), *out, *label)
	return nil
}

func runCompare(args []string) error {
	fs := newFlagSet("compare")
	in := fs.String("in", "BENCH_2.json", "JSON ledger to compare")
	before := fs.String("before", "before", "baseline section label")
	after := fs.String("after", "after", "candidate section label")
	threshold := fs.Float64("threshold", 0.10, "allowed relative regression in the gated set")
	gate := fs.String("gate", "", "regexp of benchmark names whose regressions fail the comparison (\"\" = advisory only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var gateRE *regexp.Regexp
	if *gate != "" {
		var err error
		if gateRE, err = regexp.Compile(*gate); err != nil {
			return fmt.Errorf("-gate: %w", err)
		}
	}

	raw, err := os.ReadFile(*in)
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("benchmark ledger %s does not exist; create it with 'benchdiff parse -out %s' first", *in, *in)
	}
	if err != nil {
		return err
	}
	var ledger Ledger
	if err := json.Unmarshal(raw, &ledger); err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	base, ok := ledger[*before]
	if !ok {
		return fmt.Errorf("%s: no %q section", *in, *before)
	}
	cand, ok := ledger[*after]
	if !ok {
		return fmt.Errorf("%s: no %q section", *in, *after)
	}

	names := unionKeys(base, cand)
	if len(names) == 0 {
		return fmt.Errorf("%s: sections %q and %q are both empty", *in, *before, *after)
	}

	gated := 0
	shared := 0
	var failures []string
	for _, name := range names {
		isGated := gateRE != nil && gateRE.MatchString(name)
		if b, a, ok := procsDiffer(base[name], cand[name]); ok {
			mark := "  WARNING: not comparable"
			if isGated {
				mark = "  MISMATCH"
				failures = append(failures, fmt.Sprintf("%s ran at %g vs %g procs", name, b, a))
			}
			fmt.Printf("%-44s %-22s %14.6g -> %-14.6g %s\n", name, procsUnit, b, a, mark)
		}
		for _, unit := range unionKeys(base[name], cand[name]) {
			if unit == procsUnit {
				continue
			}
			b, haveB := base[name][unit]
			a, haveA := cand[name][unit]
			switch {
			case !haveB:
				// One-sided: the candidate grew a benchmark or counter
				// the baseline never reported. Nothing to diff against.
				fmt.Printf("%-44s %-22s %14s -> %-14.6g (new)\n", name, unit, "-", a)
				continue
			case !haveA:
				fmt.Printf("%-44s %-22s %14.6g -> %-14s (gone)\n", name, unit, b, "-")
				continue
			}
			shared++
			delta := "    n/a"
			if b != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(a-b)/b)
			}
			var bad bool
			switch {
			case lowerBetter[unit]:
				bad = b != 0 && a > b*(1+*threshold)
			case higherBetter[unit]:
				bad = b != 0 && a < b*(1-*threshold)
			}
			mark := ""
			if bad {
				if isGated {
					mark = "  REGRESSION"
					failures = append(failures, fmt.Sprintf("%s %s %+.1f%%", name, unit, 100*(a-b)/b))
				} else {
					mark = "  regressed (advisory)"
				}
			}
			if isGated && (lowerBetter[unit] || higherBetter[unit]) {
				gated++
			}
			fmt.Printf("%-44s %-22s %14.6g -> %-14.6g %s%s\n", name, unit, b, a, delta, mark)
		}
	}
	if gateRE != nil && gated == 0 {
		return fmt.Errorf("-gate %q matched no gateable metrics", *gate)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d gated regression(s) beyond %.0f%% or procs mismatch(es): %s",
			len(failures), *threshold*100, strings.Join(failures, "; "))
	}
	if gateRE != nil {
		fmt.Printf("benchdiff: %d gated metrics within %.0f%% of %q (%d compared)\n",
			gated, *threshold*100, *before, shared)
	} else {
		fmt.Printf("benchdiff: compared %d metrics against %q (advisory, no gate)\n", shared, *before)
	}
	return nil
}

// unionKeys returns the sorted union of both maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// procsDiffer reports both sections' procs for one benchmark when
// both recorded it and they differ. Ledgers written before procs was
// recorded carry none, and compare as before.
func procsDiffer(before, after map[string]float64) (b, a float64, differ bool) {
	b, haveB := before[procsUnit]
	a, haveA := after[procsUnit]
	return b, a, haveB && haveA && b != a
}

// benchLine matches one `go test -bench` result line:
// BenchmarkName[-procs] <iterations> <value> <unit> [<value> <unit>]...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts benchmark -> unit -> value from go test output,
// plus the procs the benchmark ran at.
func parseBench(f *os.File) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[3])
		vals := out[name]
		if vals == nil {
			vals = map[string]float64{}
			out[name] = vals
		}
		// go test appends -N to the name only when GOMAXPROCS != 1.
		vals[procsUnit] = 1
		if p, err := strconv.Atoi(strings.TrimPrefix(m[2], "-")); err == nil {
			vals[procsUnit] = float64(p)
		}
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			vals[rest[i+1]] = v
		}
	}
	return out, sc.Err()
}
