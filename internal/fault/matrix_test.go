package fault_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// Plans per matrix row. The composite regions get more: their trials
// resume from a frame's "composite[i]" checkpoint and converge at a
// later one, the executor's deepest shortcuts.
const (
	matrixPlans          = 40
	matrixCompositePlans = 80
	matrixSeed           = 0x5EED5
)

// matrixColumn is one execution path the campaign executor selects by
// its input: the app, its staged view and golden, and the worker count.
type matrixColumn struct {
	name    string
	app     fault.App
	staged  fault.StagedApp
	golden  *fault.GoldenRun
	workers int
}

// TestReferenceMatrix is the executor's bit-identity oracle. Rows are
// fault class × injection region: the whole program and every region
// with taps, on the 8-frame test-scale Input 2 under the baseline VS
// app. Each row draws its plans once and re-executes every plan through
// RunTrialFull — from tap zero, with no resume, bucket, early mask,
// window clip or boundary convergence — which is what running the
// injected application to completion records. Every column must agree
// with that reference trial by trial (outcome, crash kind, Landed,
// retained SDC bytes):
//
//   - bucketed/1, bucketed/N: checkpoint buckets, guarded resumes,
//     boundary convergence, the early mask and the window clip, at one
//     worker and at GOMAXPROCS;
//   - resumed: every trial resumes from its checkpoint through plain
//     Resume (faulttest.ResumeOnly), with no bucket preparation or
//     convergence guard;
//   - full: a checkpoint-free golden, so every trial runs from tap zero
//     with only the early mask and the window clip;
//   - generic: full execution with every kernel on its generic
//     instrumented loop (faulttest.GenericSink), which no inert-kernel
//     skip (Machine.CanSkipTaps/AdvanceTaps) reaches — the reference and
//     the other columns run on the machine's fast paths, so this column
//     is the one that catches a wrong skip. It runs on the whole-program
//     and composite rows.
//
// The whole-program rows also compare every campaign aggregate
// (faulttest.RequireIdentical) across the columns, golden bytes and
// step counts included, and the composite rows must converge at a
// boundary at least once.
func TestReferenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("reference matrix is not -short")
	}
	p := virat.TestScale()
	p.Frames = 8
	frames := virat.Input2(p).Frames()
	vsApp := vs.New(vs.DefaultConfig(vs.AlgVS), len(frames))
	app, staged := vsApp.RunEncoded(frames), vsApp.Staged(frames)
	generic := func(m *fault.Machine) ([]byte, error) {
		res, err := vsApp.Run(frames, faulttest.GenericSink{Sink: m})
		if err != nil {
			return nil, err
		}
		return res.Encode(), nil
	}
	golden, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		t.Fatalf("CaptureGoldenStaged: %v", err)
	}
	if !slices.ContainsFunc(golden.Checkpoints, func(cp fault.Checkpoint) bool { return strings.HasPrefix(cp.Name, "composite[") }) {
		t.Fatal("the golden run recorded no interior composite boundary")
	}
	procs := runtime.GOMAXPROCS(0)
	cols := []matrixColumn{
		{name: "bucketed/1", app: app, staged: staged, golden: golden, workers: 1},
		{name: "bucketed/N", app: app, staged: staged, golden: golden, workers: procs},
		{name: "resumed", app: app, staged: faulttest.ResumeOnly{StagedApp: staged}, golden: golden, workers: procs},
		{name: "full", app: app, golden: faulttest.FullGolden(t, app), workers: procs},
		// The slowest path: only the rows whose kernel spans it guards.
		{name: "generic", app: generic, golden: faulttest.FullGolden(t, generic), workers: procs},
	}

	regions := []fault.Region{fault.RAny}
	for r := fault.Region(0); r < fault.NumRegions; r++ {
		regions = append(regions, r)
	}
	converged := 0
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for _, r := range regions {
			if golden.Taps(class, r) == 0 {
				continue // this region has no sites for this class
			}
			composite := r == fault.RWarpInvoker || r == fault.RRemapBilinear || r == fault.RBlend
			n, rowCols := matrixPlans, cols[:len(cols)-1]
			if composite {
				n = matrixCompositePlans
			}
			if composite || r == fault.RAny {
				rowCols = cols
			}
			res := checkRow(t, app, golden, rowCols, class, r, n)
			if composite {
				converged += res.Sched.Converged
			}
		}
	}
	if converged == 0 {
		t.Error("no composite trial converged at a boundary")
	}
}

// checkRow runs one row: n plans of class c in region r, each column
// against the cutoff-free reference. It returns the first column's
// result.
func checkRow(t *testing.T, app fault.App, golden *fault.GoldenRun, cols []matrixColumn,
	c fault.Class, r fault.Region, n int) *fault.Result {
	t.Helper()
	label := fmt.Sprintf("class=%v region=%v", c, r)
	plans := fault.GeneratePlans(matrixSeed, c, r, fault.WindowFor(c, 0), n, golden.Taps(c, r))
	want := make([]fault.Trial, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range plans {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			want[i] = fault.RunTrialFull(app, golden, plans[i])
			<-sem
		}()
	}
	wg.Wait()

	var base *fault.Result
	for _, col := range cols {
		name := label + " " + col.name
		sess, err := fault.NewSession(fault.SessionConfig{
			App: col.app, Staged: col.staged, Golden: col.golden, Workers: col.workers,
			Class: c, Region: r, KeepSDCOutputs: true,
		})
		if err != nil {
			t.Fatalf("%s: NewSession: %v", name, err)
		}
		res, err := sess.Run(context.Background(), fault.Config{Plans: plans})
		sess.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range res.Trials {
			got, w := &res.Trials[i], &want[i]
			if got.Plan != plans[i] {
				t.Fatalf("%s: trial %d ran plan %+v, want %+v", name, i, got.Plan, plans[i])
			}
			if got.Outcome != w.Outcome || got.Crash != w.Crash || got.Landed != w.Landed {
				t.Errorf("%s: trial %d (%v,%v,landed=%v), cutoff-free reference (%v,%v,landed=%v)",
					name, i, got.Outcome, got.Crash, got.Landed, w.Outcome, w.Crash, w.Landed)
			}
			if !bytes.Equal(got.Output, w.Output) {
				t.Errorf("%s: trial %d: SDC output bytes differ from the reference", name, i)
			}
		}
		if base == nil {
			base = res
			if res.Sched.Buckets == 0 {
				t.Errorf("%s: no trial ran from a checkpoint bucket", name)
			}
		} else if r == fault.RAny {
			faulttest.RequireIdentical(t, name+" vs "+cols[0].name, base, res)
		}
	}
	return base
}
