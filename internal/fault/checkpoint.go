package fault

import (
	"fmt"
	"slices"
	"sort"
)

// CheckpointSchema versions the golden checkpoint layout: the set of
// stage boundaries an application snapshots and the meaning of the
// counters recorded at each. Any change to where the pipeline places
// its boundaries — or to the tap stream between them — must bump this
// constant; the drift-guard test pins the golden counter stream per
// schema version, so a silent change fails loudly instead of quietly
// invalidating resumed trials.
const CheckpointSchema = 4

// TapCounters is a point-in-time snapshot of a Machine's dynamic tap
// counters — the coordinates of a stage boundary in the injection-site
// space. Op accounting is deliberately excluded: trial machines' op
// counts are never read (only golden and metered runs feed the energy
// model), so resumed trials do not need them.
type TapCounters struct {
	// Steps is the total tap count (the hang-budget clock).
	Steps uint64
	// GPR and FPR are the whole-program per-class tap counts.
	GPR, FPR uint64
	// RegionGPR and RegionFPR are the per-region per-class tap counts.
	RegionGPR, RegionFPR [NumRegions]uint64
}

// For returns the counter that indexes the injection-site space of
// class c scoped to region r (RAny means whole-program).
func (tc *TapCounters) For(c Class, r Region) uint64 {
	if r == RAny {
		if c == GPR {
			return tc.GPR
		}
		return tc.FPR
	}
	if r >= NumRegions {
		return 0
	}
	if c == GPR {
		return tc.RegionGPR[r]
	}
	return tc.RegionFPR[r]
}

// Counters returns a snapshot of the machine's tap counters. Together
// with SeedCounters it forms the checkpoint seam: counters captured at
// a golden stage boundary, seeded into a trial machine, make the
// resumed suffix tap-for-tap identical to the same suffix of a full
// run.
func (m *Machine) Counters() TapCounters {
	return TapCounters{
		Steps:     m.steps,
		GPR:       m.gprCount,
		FPR:       m.fprCount,
		RegionGPR: m.regionGPR,
		RegionFPR: m.regionFPR,
	}
}

// SeedCounters fast-forwards the machine's tap counters to tc, as if
// it had already executed the golden prefix ending there. All four
// counter families must be seeded together: plan sites index the
// class (or class+region) stream, register attribution hashes the
// whole-program class counter even for region-scoped plans, and the
// hang budget is measured in total steps.
func (m *Machine) SeedCounters(tc TapCounters) {
	m.steps = tc.Steps
	m.gprCount = tc.GPR
	m.fprCount = tc.FPR
	m.regionGPR = tc.RegionGPR
	m.regionFPR = tc.RegionFPR
}

// Checkpoint is one stage-boundary snapshot of a golden run: the tap
// counters at the boundary plus the application's resumable state.
// State is owned by the golden run and shared by every trial that
// resumes from it — StagedApp.Resume must treat it as immutable
// (copy-on-restore).
type Checkpoint struct {
	// Name labels the boundary (e.g. "features[3]", "composite[4]").
	Name string
	// Counters is the machine's tap geometry at the boundary.
	Counters TapCounters
	// State is the application-defined resumable pipeline state.
	State any
}

// StagedApp is the differential-execution view of an application: the
// same computation as a fault.App, but expressed as resumable stages
// so a campaign can skip the fault-free prefix of a trial.
//
// Implementations carry a hard equivalence obligation: for any plan,
// RunFull from the start and Resume from any boundary whose counters
// do not exceed the plan's site must produce byte-identical output and
// an identical tap suffix.
type StagedApp interface {
	// RunFull executes every stage. When snap is non-nil it is called
	// at each stage boundary, before the stage's first tap, with a
	// label and a state snapshot valid for a later Resume; snapshots
	// must stay usable (and immutable) after RunFull returns. The
	// machine's counters at the moment of the call locate the boundary.
	RunFull(m *Machine, snap func(name string, state any)) ([]byte, error)
	// Resume executes only the stages at and after the boundary whose
	// state is given, on a machine whose counters were seeded with the
	// boundary's. state is shared across trials and must not be
	// mutated.
	Resume(m *Machine, state any) ([]byte, error)
}

// BoundaryGuard is the convergence probe a batched campaign hands to
// ResumeGuarded: the app calls it at every stage boundary it reaches,
// the resume boundary itself first, before the boundary's first tap,
// with the boundary's label and current state. A true return means the
// trial has provably re-joined the golden run — the app abandons the
// suffix and the campaign classifies the trial from the golden output.
type BoundaryGuard func(name string, state any) bool

// BatchStagedApp extends StagedApp for checkpoint-bucket campaigns:
// per-bucket restore amortization and boundary-convergence cutoffs.
// The equivalence obligation extends correspondingly — for any plan,
// ResumeGuarded must classify exactly as Resume run to completion
// would, whatever the guard decides.
type BatchStagedApp interface {
	StagedApp
	// PrepareResume is called once per checkpoint bucket with the
	// boundary's shared state and returns an immutable view every
	// ResumeGuarded in the bucket may consume (a tap-free value derived
	// from the state, identical across the bucket's trials). It may
	// return nil when the boundary offers nothing to amortize.
	PrepareResume(state any) any
	// ResumeGuarded is Resume plus the bucket seam: prep is the shared
	// PrepareResume view (nil when absent) and guard, when non-nil, is
	// consulted at each stage boundary from the resume boundary on; if
	// it fires the app stops and returns converged=true with a nil
	// output. state and prep are shared across trials and must not be
	// mutated.
	ResumeGuarded(m *Machine, state, prep any, guard BoundaryGuard) (out []byte, converged bool, err error)
	// StateEqual reports whether two resumable states of the same
	// boundary are bit-equal in everything the rest of the run reads —
	// floating-point fields compared on their IEEE-754 bits, so +0/-0
	// and NaN payload differences count as divergence. State no later
	// stage turns into output (reports, statistics) may differ. It
	// backs the convergence guard's soundness: equal live state + a
	// resolved plan imply the remaining suffix is the golden suffix,
	// with the golden suffix's step count.
	StateEqual(a, b any) bool
}

// CaptureGoldenStaged executes one fault-free run of the staged app,
// recording a checkpoint at every stage boundary. The returned golden
// run carries everything CaptureGolden records plus the checkpoint
// stream that lets a Session skip fault-free trial prefixes.
func CaptureGoldenStaged(sa StagedApp) (*GoldenRun, error) {
	m := New()
	var cps []Checkpoint
	out, err := sa.RunFull(m, func(name string, state any) {
		cps = append(cps, Checkpoint{Name: name, Counters: m.Counters(), State: state})
	})
	if err != nil {
		return nil, fmt.Errorf("fault: golden run failed: %w", err)
	}
	g := newGoldenRun(out, m)
	// Every cached golden keeps its checkpoint stream for good: drop
	// the append slack.
	g.Checkpoints = slices.Clone(cps)
	g.Schema = CheckpointSchema
	return g, nil
}

// CheckpointIndexFor returns the index of the latest checkpoint a trial
// of plan p can resume from: the last boundary whose class/region-scoped
// counter does not exceed the plan's site. Every tap in the prefix
// before that boundary has a scoped index below the site, so the plan
// can neither fire nor resolve there — the prefix is provably
// fault-free and its state is bit-identical to the golden snapshot.
// Returns -1 when the site precedes the first boundary (or no
// checkpoints were recorded). The bucket scheduler groups plans by this
// index.
func (g *GoldenRun) CheckpointIndexFor(p Plan) int {
	// Boundary counters are monotone in capture order, so the viable
	// prefix of the checkpoint stream is contiguous.
	n := sort.Search(len(g.Checkpoints), func(i int) bool {
		return g.Checkpoints[i].Counters.For(p.Class, p.Region) > p.Site
	})
	return n - 1
}
