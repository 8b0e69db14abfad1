// Command vsbench is the repository's benchmark. It runs one named
// workload through the public APIs of the campaign, plan, service and
// fabric packages, checks the results, and prints every metric with its
// unit; the last line of standard output is the result as one JSON
// object. Run it from the repository root with
//
//	bash cmd/vsbench/run.sh --workload classic-gpr --seed 1 --seconds 25 --trace 0
//
// --trace 1 makes a separate traced run: the same workload with every
// call into the pipeline, HTTP and planner layers timed, reporting the
// per-layer metrics instead of the end-to-end ones and writing the spans
// to a file. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(context.Context, *bench) error{
	"classic-gpr":  classicGPR,
	"adaptive-gpr": adaptiveGPR,
	"vsd-mixed":    vsdMixed,
	"fabric-gpr":   fabricGPR,
}

// runLimit bounds one invocation, set-up and checks included.
const runLimit = 170 * time.Second

func main() {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := flag.String("spans", "", "traced runs: span file (default vsbench-spans-<workload>-<seed>.json in the temp directory)")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "vsbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		size:     fullSizes(),
	}
	if cfg.trace && *spans == "" {
		*spans = filepath.Join(os.TempDir(), fmt.Sprintf("vsbench-spans-%s-%d.json", cfg.workload, cfg.seed))
	}

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	out, tr, err := run(ctx, cfg)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsbench:", err)
		os.Exit(1)
	}
	if tr != nil {
		if err := tr.writeFile(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "vsbench: write spans:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "vsbench: spans written to", *spans)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d\n",
		cfg.workload, cfg.seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result and, for a traced
// run, the tracer holding its spans.
func run(ctx context.Context, cfg config) (*output, *tracer, error) {
	b := newBench(cfg)
	defer b.transport.CloseIdleConnections()
	if err := workloads[cfg.workload](ctx, b); err != nil {
		return nil, nil, err
	}
	out, err := b.result()
	return out, b.tr, err
}
