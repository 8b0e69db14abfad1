package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

// tinySizes shrinks every workload so the smoke test runs all four in
// seconds.
func tinySizes() sizes {
	return sizes{
		setups:        2,
		sample:        8,
		segmentTrials: 200,
		precision:     0.25,
		confidence:    0.8,
		vsTrials:      40,
		storyTrials:   100,
		lightRate:     4,
		heavyRate:     6,
		fabricTrials:  200,
		fabricShards:  4,
		fabricPrec:    0.25,
		fanout:        2,
		calibTrials:   100,
	}
}

// TestDecoratorFidelity pins that tracing changes nothing the executor
// computes: decorated and plain workloads give identical records for a
// fixed-budget and an adaptive campaign, the decorated workload keeps
// the BatchStagedApp seam (buckets are scheduled and reused across
// adaptive rounds), and the decorator's cutoff counts agree with the
// executor's own.
func TestDecoratorFidelity(t *testing.T) {
	ctx := context.Background()
	b := newBench(config{seed: 7, trace: true, size: tinySizes()})
	fx, err := b.newFixture()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.mismatches) > 0 {
		t.Fatalf("fixture: %v", b.mismatches)
	}
	if _, ok := fx.work.Staged.(fault.BatchStagedApp); !ok {
		t.Fatal("decorated workload lost the BatchStagedApp seam")
	}

	var res [2]*campaign.Result
	for i, w := range []campaign.Workload{fx.plain, fx.work} {
		if res[i], err = b.runner.Run(ctx, b.campaignSpec(fx, w, 300, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(records(res[0]), records(res[1])) {
		t.Error("fixed-budget campaign: traced records differ from plain ones")
	}
	sched := res[1].Fault.Sched
	if sched.Buckets == 0 {
		t.Error("traced campaign scheduled no checkpoint buckets")
	}
	if got := b.pipe.earlyMsk.Load(); got != int64(sched.EarlyMasks) {
		t.Errorf("decorator saw %d early masks, executor %d", got, sched.EarlyMasks)
	}
	if got := b.pipe.converged.Load(); got != int64(sched.Converged) {
		t.Errorf("decorator saw %d converged trials, executor %d", got, sched.Converged)
	}

	var ares [2]*campaign.AdaptiveResult
	for i, w := range []campaign.Workload{fx.plain, fx.work} {
		spec := b.campaignSpec(fx, w, 0, 2)
		spec.Adaptive = &campaign.AdaptiveSpec{Precision: 0.2, Confidence: 0.8}
		if ares[i], err = b.runner.RunAdaptive(ctx, spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(ares[0].Records, ares[1].Records) {
		t.Error("adaptive campaign: traced records differ from plain ones")
	}
	if ares[1].Session.BucketPrepHits == 0 {
		t.Error("traced adaptive campaign reused no bucket preparation")
	}
}

// panicky is a BatchStagedApp whose every entry point panics with its
// own value.
type panicky struct{ v any }

func (p panicky) RunFull(*fault.Machine, func(string, any)) ([]byte, error) { panic(p.v) }
func (p panicky) Resume(*fault.Machine, any) ([]byte, error)                { panic(p.v) }
func (p panicky) PrepareResume(any) any                                     { return nil }
func (p panicky) StateEqual(any, any) bool                                  { return true }
func (p panicky) ResumeGuarded(*fault.Machine, any, any, fault.BoundaryGuard) ([]byte, bool, error) {
	panic(p.v)
}

// TestDecoratorReraisesPanics pins that a panic inside the application
// reaches the executor's recover unchanged, because the executor
// classifies early masks, hangs and crashes by the panic value, and
// that the call is still timed.
func TestDecoratorReraisesPanics(t *testing.T) {
	sentinel := errors.New("sentinel")
	p := newPipeStats(newTracer())
	w := p.decorate(campaign.Workload{
		App:    func(*fault.Machine) ([]byte, error) { panic(sentinel) },
		Staged: panicky{sentinel},
	})
	batch := w.Staged.(fault.BatchStagedApp)
	calls := map[string]func(){
		"App":           func() { w.App(fault.New()) },
		"Resume":        func() { batch.Resume(fault.New(), nil) },
		"ResumeGuarded": func() { batch.ResumeGuarded(fault.New(), nil, nil, func(string, any) bool { return false }) },
		"RunFull":       func() { batch.RunFull(fault.New(), nil) },
	}
	for name, call := range calls {
		got := func() (r any) {
			defer func() { r = recover() }()
			call()
			return nil
		}()
		if got != sentinel {
			t.Errorf("%s: recovered %v, want the original panic value", name, got)
		}
	}
	if p.fullRuns.Load() != 1 || p.resumes.Load() != 2 || len(p.goldenDur) != 1 {
		t.Errorf("timed %d full runs, %d resumes, %d goldens; want 1, 2, 1",
			p.fullRuns.Load(), p.resumes.Load(), len(p.goldenDur))
	}
}

// benchmarkFile is the subset of BENCHMARK.json the metric tables must
// match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, traced, and checks that
// the workloads, metric names and units match BENCHMARK.json, that every
// end-to-end metric was measured, and that all correctness checks pass.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(defs), len(listed))
		}
		for i := range min(len(defs), len(listed)) {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", what, i,
					defs[i].name, defs[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}

	for _, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			drive, ok := workloads[wl.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json workload %q is not implemented", wl.Name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			b := newBench(config{workload: wl.Name, seed: 3, measure: time.Second, trace: true, size: tinySizes()})
			if err := drive(ctx, b); err != nil {
				t.Fatal(err)
			}
			out, err := b.result()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", out.Correct, out.Attempted, out.Failed, b.mismatches)
			}
			for _, d := range endToEnd {
				if b.e2e[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a measured value", d.name, b.e2e[d.name])
				}
			}
		})
	}
}
