// Package faulttest holds the fixtures the fault-injection tests of
// several packages share: a miniature application, its two-stage
// staged view, a staged toy whose converged trials can hang, the
// reference executors' input wrappers, the one campaign-observable
// comparison and the split-exactness check for kernels with inert
// units (split.go). Only _test.go files import it; it imports nothing
// of the repository but packages fault, probe and stats, so
// the in-package tests of campaign, fabric, plan and the rest can use
// it without an import cycle.
package faulttest

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/probe"
)

// ToyApp is a miniature fault.App with a realistic mix of tap classes:
// it walks a buffer with tapped indices (crash-prone), sums tapped
// pixels (SDC/mask-prone) and runs a tapped float stage that is
// saturated away (mask-prone). It is cheap enough for property-style
// campaign sweeps and whole in-process clusters.
func ToyApp(m *fault.Machine) ([]byte, error) {
	buf := make([]uint8, 64)
	for i := range buf {
		buf[i] = uint8(i * 3)
	}
	return toyTransform(m, buf)
}

// toyTransform is the tapped stage ToyApp and StagedToy share.
func toyTransform(m *fault.Machine, buf []uint8) ([]byte, error) {
	out := make([]uint8, 64)
	n := m.Cnt(len(buf))
	if n < 0 || n > len(buf) {
		// Mimic an application-level sanity check that aborts.
		return nil, errors.New("toy: invalid length")
	}
	for i := 0; i < n; i++ {
		idx := m.Idx(i)
		v := m.Pix(buf[idx]) // panics if idx out of range
		f := m.F64(float64(v) * 1.5)
		if f > 255 {
			f = 255
		}
		if f < 0 {
			f = 0
		}
		out[m.Idx(i)] = uint8(f)
	}
	return out, nil
}

// StagedToy is a two-stage fault.StagedApp over ToyApp's tap mix:
// stage "fill" builds the input buffer through pixel taps, stage
// "transform" computes the output. The boundary snapshot is the filled
// buffer, shared read-only by every resumed trial. Fulls and Resumes
// count invocations, so tests can assert the skip path engaged.
type StagedToy struct {
	Fulls, Resumes *atomic.Int64
}

// NewStagedToy returns a StagedToy with zeroed counters.
func NewStagedToy() StagedToy {
	return StagedToy{Fulls: new(atomic.Int64), Resumes: new(atomic.Int64)}
}

// RunFull implements fault.StagedApp.
func (s StagedToy) RunFull(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
	s.Fulls.Add(1)
	buf := make([]uint8, 64)
	for i := range buf {
		buf[i] = m.Pix(uint8(i * 3))
	}
	if snap != nil {
		snap("transform", buf[:len(buf):len(buf)])
	}
	return toyTransform(m, buf)
}

// Resume implements fault.StagedApp.
func (s StagedToy) Resume(m *fault.Machine, state any) ([]byte, error) {
	s.Resumes.Add(1)
	return toyTransform(m, state.([]uint8))
}

// App is the staged toy run end to end, as a fault.App.
func (s StagedToy) App(m *fault.Machine) ([]byte, error) { return s.RunFull(m, nil) }

// ResumeOnly hides a staged app's fault.BatchStagedApp view: trials
// still resume from their latest golden checkpoint, but each through
// plain Resume, with no shared bucket preparation and no convergence
// guard.
type ResumeOnly struct{ fault.StagedApp }

// GenericSink hides a machine's concrete type behind probe.Sink, so
// no kernel recognises the machine and every unit runs instrumented —
// the path a Meter takes — instead of the inert-unit skip, while the
// taps still land on the wrapped machine.
type GenericSink struct{ probe.Sink }

// FullGolden captures app's golden run with no checkpoints: a campaign
// over it runs every trial from tap zero, the path any checkpoint-free
// golden takes.
func FullGolden(t testing.TB, app fault.App) *fault.GoldenRun {
	t.Helper()
	golden, err := fault.CaptureGolden(app)
	if err != nil {
		t.Fatalf("CaptureGolden: %v", err)
	}
	return golden
}

// RequireIdentical compares every campaign observable of two results:
// the golden reference, the aggregates (counts, crash split, coverage
// histograms, rate curve) and each trial's verdict and retained SDC
// output bytes.
func RequireIdentical(t testing.TB, label string, a, b *fault.Result) {
	t.Helper()
	if a.Completed != b.Completed {
		t.Errorf("%s: completed %d vs %d", label, a.Completed, b.Completed)
	}
	if a.Counts != b.Counts {
		t.Errorf("%s: outcome counts differ: %v vs %v", label, a.Counts, b.Counts)
	}
	if !reflect.DeepEqual(a.CrashCounts, b.CrashCounts) {
		t.Errorf("%s: crash splits differ: %v vs %v", label, a.CrashCounts, b.CrashCounts)
	}
	if !reflect.DeepEqual(a.RegHist.Counts, b.RegHist.Counts) {
		t.Errorf("%s: register histograms differ", label)
	}
	if !reflect.DeepEqual(a.BitHist.Counts, b.BitHist.Counts) {
		t.Errorf("%s: bit histograms differ", label)
	}
	if !reflect.DeepEqual(a.Curve.Checkpoints, b.Curve.Checkpoints) {
		t.Errorf("%s: rate-curve checkpoints differ: %v vs %v", label, a.Curve.Checkpoints, b.Curve.Checkpoints)
	}
	if !reflect.DeepEqual(a.Curve.Snapshots, b.Curve.Snapshots) {
		t.Errorf("%s: rate-curve snapshots differ", label)
	}
	if !bytes.Equal(a.GoldenOutput, b.GoldenOutput) {
		t.Errorf("%s: golden output bytes differ (%d vs %d bytes)", label, len(a.GoldenOutput), len(b.GoldenOutput))
	}
	if a.GoldenSteps != b.GoldenSteps {
		t.Errorf("%s: golden step counts differ: %d vs %d", label, a.GoldenSteps, b.GoldenSteps)
	}
	if a.TotalTaps != b.TotalTaps {
		t.Errorf("%s: tap-space sizes differ: %d vs %d", label, a.TotalTaps, b.TotalTaps)
	}
	RequireSameTrials(t, label, a.Trials, b.Trials)
}

// RequireSameTrials compares two trial tables entry by entry: outcome,
// crash kind, Landed and retained SDC output bytes.
func RequireSameTrials(t testing.TB, label string, a, b []fault.Trial) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trial counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		ta, tb := &a[i], &b[i]
		if ta.Outcome != tb.Outcome || ta.Crash != tb.Crash || ta.Landed != tb.Landed {
			t.Errorf("%s: trial %d differs: (%v,%v,landed=%v) vs (%v,%v,landed=%v)",
				label, i, ta.Outcome, ta.Crash, ta.Landed, tb.Outcome, tb.Crash, tb.Landed)
		}
		if (ta.Output == nil) != (tb.Output == nil) || !bytes.Equal(ta.Output, tb.Output) {
			t.Errorf("%s: trial %d SDC output retention differs", label, i)
		}
	}
}

// HangToy is a two-stage fault.BatchStagedApp whose first stage,
// "spin", runs a tapped trip count of pass-through taps and leaves no
// state, and whose second, "work", sums HangToyWork tapped values.
// Flipping bit HangToyBit of the trip count (GPR site 0) stretches the
// spin by 4096 steps: the trial reaches the "work" boundary resolved,
// with the golden state and within the hang budget, yet the golden
// suffix from there overruns the budget. A converged trial of that plan
// must therefore classify as a Hang, exactly like the full run.
type HangToy struct{}

// HangToy's shape: the spin's golden trip count, the work stage's
// length and the trip-count bit whose flip turns convergence into a
// hang.
const (
	HangToySpin = 64
	HangToyWork = 1000
	HangToyBit  = 12
)

// RunFull implements fault.StagedApp.
func (h HangToy) RunFull(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
	if snap != nil {
		snap("spin", "spin")
	}
	h.spin(m)
	if snap != nil {
		snap("work", "work")
	}
	return h.work(m), nil
}

func (HangToy) spin(m *fault.Machine) {
	n := m.Cnt(HangToySpin)
	for i := 0; i < n; i++ {
		m.Pix(0)
	}
}

func (HangToy) work(m *fault.Machine) []byte {
	var sum uint8
	for i := range HangToyWork {
		sum += m.Pix(uint8(i))
	}
	return []byte{sum}
}

// Resume implements fault.StagedApp.
func (h HangToy) Resume(m *fault.Machine, state any) ([]byte, error) {
	out, _, err := h.ResumeGuarded(m, state, nil, nil)
	return out, err
}

// PrepareResume implements fault.BatchStagedApp.
func (HangToy) PrepareResume(any) any { return nil }

// ResumeGuarded implements fault.BatchStagedApp.
func (h HangToy) ResumeGuarded(m *fault.Machine, state, _ any, guard fault.BoundaryGuard) ([]byte, bool, error) {
	if state == "spin" {
		if guard != nil && guard("spin", state) {
			return nil, true, nil
		}
		h.spin(m)
	}
	if guard != nil && guard("work", "work") {
		return nil, true, nil
	}
	return h.work(m), false, nil
}

// StateEqual implements fault.BatchStagedApp.
func (HangToy) StateEqual(a, b any) bool { return a == b }

// App is the hang toy run end to end, as a fault.App.
func (h HangToy) App(m *fault.Machine) ([]byte, error) { return h.RunFull(m, nil) }
