package campaign

import (
	"fmt"
	"sort"
	"strings"

	"vsresil/internal/fault"
)

// ShardSetError reports a shard set that does not tile the plan space
// exactly once. Missing lists uncovered plan-index ranges, Overlaps
// lists ranges covered by more than one part; both are half-open
// [lo, hi) windows in ascending order. Callers that assemble shard
// sets dynamically (the cluster coordinator, resumed campaigns) can
// match with errors.As and re-dispatch exactly the missing windows.
type ShardSetError struct {
	PlanTrials int
	Missing    [][2]int
	Overlaps   [][2]int
}

func (e *ShardSetError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: shards do not tile the %d-trial plan space", e.PlanTrials)
	writeWindows := func(label string, ws [][2]int) {
		if len(ws) == 0 {
			return
		}
		fmt.Fprintf(&b, "; %s", label)
		for i, w := range ws {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " [%d,%d)", w[0], w[1])
		}
	}
	writeWindows("missing trials", e.Missing)
	writeWindows("overlapping trials", e.Overlaps)
	return b.String()
}

// Merge recombines the results of a complete shard decomposition into
// the Result the unsharded campaign would have produced. Because
// every shard drew its plans from the same seeded pre-generation and
// Merge re-aggregates trials in plan-index order through the same
// fault.NewResult/Accumulate path RunCampaign uses, the merged outcome
// counts, crash split, coverage histograms and rate curve are
// bit-identical to the unsharded run's; retained SDC outputs are
// trimmed to the same lowest-index set the unsharded cap would keep.
//
// The parts must cover the full plan space exactly once, agree on the
// campaign parameters, and each be complete (no interrupted shards —
// resume those first). Order does not matter. A set that leaves gaps
// or double-covers trials fails with a *ShardSetError naming every
// missing and overlapping plan-index window.
func Merge(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("campaign: merge of zero results")
	}
	sorted := append([]*Result(nil), parts...)
	for i, p := range sorted {
		if p == nil || p.Fault == nil {
			return nil, fmt.Errorf("campaign: merge part %d is nil", i)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Fault.Config.PlanOffset < sorted[j].Fault.Config.PlanOffset
	})

	// The base campaign every shard must agree on.
	first := sorted[0].Fault.Config
	planTrials := first.PlanTrials
	if planTrials == 0 {
		planTrials = first.Trials
	}
	next := 0
	executed := 0
	var shardErr ShardSetError
	for i, p := range sorted {
		cfg := p.Fault.Config
		pt := cfg.PlanTrials
		if pt == 0 {
			pt = cfg.Trials
		}
		if pt != planTrials {
			return nil, fmt.Errorf("campaign: merge part %d covers plan space %d, want %d", i, pt, planTrials)
		}
		if cfg.Class != first.Class || cfg.Region != first.Region ||
			cfg.Seed != first.Seed || cfg.Window != first.Window ||
			cfg.StepFactor != first.StepFactor || cfg.CheckpointEvery != first.CheckpointEvery {
			return nil, fmt.Errorf("campaign: merge part %d ran different campaign parameters", i)
		}
		if p.Fault.Completed != cfg.Trials {
			return nil, fmt.Errorf("campaign: merge part %d is incomplete (%d/%d trials) — resume it before merging",
				i, p.Fault.Completed, cfg.Trials)
		}
		if p.Fault.TotalTaps != sorted[0].Fault.TotalTaps || p.Fault.GoldenSteps != sorted[0].Fault.GoldenSteps {
			return nil, fmt.Errorf("campaign: merge part %d ran a different golden run", i)
		}
		// Tiling check: with parts sorted by offset, a window starting
		// past the high-water mark leaves a gap; one starting before it
		// re-covers trials another part owns. Collect every violation so
		// the error names the full repair set, not just the first hole.
		off, end := cfg.PlanOffset, cfg.PlanOffset+cfg.Trials
		if off > next {
			shardErr.Missing = append(shardErr.Missing, [2]int{next, off})
		} else if off < next {
			hi := end
			if hi > next {
				hi = next
			}
			shardErr.Overlaps = append(shardErr.Overlaps, [2]int{off, hi})
		}
		if end > next {
			next = end
		}
		executed += p.Executed
	}
	if next < planTrials {
		shardErr.Missing = append(shardErr.Missing, [2]int{next, planTrials})
	}
	if len(shardErr.Missing) > 0 || len(shardErr.Overlaps) > 0 {
		shardErr.PlanTrials = planTrials
		return nil, &shardErr
	}

	mergedCfg := first
	mergedCfg.Trials = planTrials
	mergedCfg.PlanTrials = 0
	mergedCfg.PlanOffset = 0
	mergedCfg.Resume = nil
	mergedCfg.OnTrial = nil
	mergedCfg.OnSDCOutput = nil

	fres := fault.NewResult(mergedCfg,
		sorted[0].Fault.GoldenOutput, sorted[0].Fault.GoldenSteps, sorted[0].Fault.TotalTaps)
	trials := make([]fault.Trial, 0, planTrials)
	for _, p := range sorted {
		trials = append(trials, p.Fault.Trials...)
		// Scheduler statistics are additive across disjoint shard
		// windows (they describe how trials were executed, not what
		// they computed, so they carry no bit-identity obligation).
		fres.MergeSched(p.Fault)
	}
	fres.Trials = trials
	for i := range trials {
		fres.Accumulate(&trials[i])
	}

	spec := sorted[0].Spec
	spec.Golden = nil
	// Each shard kept its own lowest-index SDC outputs; the union
	// contains the global lowest-index set, so trimming in plan order
	// reproduces the unsharded retention exactly.
	if max := spec.SDC.Max; spec.SDC.Keep && max > 0 {
		kept := 0
		for i := range fres.Trials {
			if fres.Trials[i].Output == nil {
				continue
			}
			kept++
			if kept > max {
				fres.Trials[i].Output = nil
			}
		}
	}

	var elapsed = sorted[0].Elapsed
	for _, p := range sorted[1:] {
		if p.Elapsed > elapsed {
			elapsed = p.Elapsed
		}
	}
	return &Result{Spec: spec, Fault: fres, Executed: executed, Elapsed: elapsed}, nil
}

// partialMerge aggregates whatever an interrupted shard set completed
// into one best-effort Result: summed outcome counts, crash split and
// coverage histograms, concatenated trial windows. Unlike Merge it
// makes no bit-identity claim — an interrupted campaign's completion
// set depends on scheduling — and leaves the rate curve empty, so it
// only backs partial reporting on cancellation. nil parts (shards
// that never produced a result) are skipped; returns nil if none did.
func partialMerge(spec Spec, parts []*Result) *Result {
	var alive []*Result
	for _, p := range parts {
		if p != nil && p.Fault != nil {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	sort.Slice(alive, func(i, j int) bool {
		return alive[i].Fault.Config.PlanOffset < alive[j].Fault.Config.PlanOffset
	})

	first := alive[0].Fault
	cfg := first.Config
	planTrials := cfg.PlanTrials
	if planTrials == 0 {
		planTrials = cfg.Trials
	}
	cfg.Trials = planTrials
	cfg.PlanTrials = 0
	cfg.PlanOffset = 0
	cfg.Resume = nil
	cfg.OnTrial = nil
	cfg.OnSDCOutput = nil

	fres := fault.NewResult(cfg, first.GoldenOutput, first.GoldenSteps, first.TotalTaps)
	executed := 0
	for _, p := range alive {
		fres.Completed += p.Fault.Completed
		for o, n := range p.Fault.Counts {
			fres.Counts[o] += n
		}
		for k, n := range p.Fault.CrashCounts {
			fres.CrashCounts[k] += n
		}
		for i, n := range p.Fault.RegHist.Counts {
			fres.RegHist.Counts[i] += n
		}
		for i, n := range p.Fault.BitHist.Counts {
			fres.BitHist.Counts[i] += n
		}
		fres.Trials = append(fres.Trials, p.Fault.Trials...)
		fres.MergeSched(p.Fault)
		executed += p.Executed
	}

	spec.Golden = nil
	return &Result{Spec: spec, Fault: fres, Executed: executed}
}
