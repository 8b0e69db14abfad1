package vs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/stats"
	"vsresil/internal/stitch"
	"vsresil/internal/virat"
)

func inputFrames(t testing.TB, n int) []*imgproc.Gray {
	t.Helper()
	p := virat.TestScale()
	p.Frames = n
	return virat.Input2(p).Frames()
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		AlgVS: "VS", AlgRFD: "VS_RFD", AlgKDS: "VS_KDS", AlgSM: "VS_SM",
	}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), name)
		}
	}
	if !strings.HasPrefix(Algorithm(99).String(), "Algorithm(") {
		t.Error("unknown algorithm string")
	}
	if len(Algorithms()) != int(NumAlgorithms) {
		t.Error("Algorithms() incomplete")
	}
}

func TestBaselineRunProducesPanorama(t *testing.T) {
	frames := inputFrames(t, 8)
	app := New(DefaultConfig(AlgVS), len(frames))
	res, err := app.Run(frames, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Primary() == nil {
		t.Fatal("no panorama")
	}
	if app.Dropped() != 0 {
		t.Errorf("baseline dropped %d frames", app.Dropped())
	}
}

func TestRFDDropsConfiguredFraction(t *testing.T) {
	frames := inputFrames(t, 10)
	app := New(DefaultConfig(AlgRFD), len(frames))
	if app.Dropped() != 1 {
		t.Errorf("RFD on 10 frames dropped %d, want 1 (10%%)", app.Dropped())
	}
	res, err := app.Run(frames, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := 0
	for _, p := range res.Panoramas {
		total += p.Frames
	}
	if total > 9 {
		t.Errorf("stitched %d frames after dropping 1 of 10", total)
	}
}

func TestRFDDeterministicDropSet(t *testing.T) {
	a := New(DefaultConfig(AlgRFD), 50)
	b := New(DefaultConfig(AlgRFD), 50)
	if len(a.dropSet) != len(b.dropSet) {
		t.Fatal("drop set size differs")
	}
	for k := range a.dropSet {
		if !b.dropSet[k] {
			t.Fatal("drop sets differ for same seed")
		}
	}
	cfg := DefaultConfig(AlgRFD)
	cfg.Seed = 999
	c := New(cfg, 50)
	same := true
	for k := range a.dropSet {
		if !c.dropSet[k] {
			same = false
		}
	}
	if same && len(a.dropSet) > 0 {
		t.Error("different seeds produced identical drop sets")
	}
}

func TestRFDNeverDropsFrameZero(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		cfg := DefaultConfig(AlgRFD)
		cfg.Seed = seed
		app := New(cfg, 20)
		if app.dropSet[0] {
			t.Fatalf("seed %d dropped frame 0", seed)
		}
	}
}

func TestKDSConfiguresStride(t *testing.T) {
	app := New(DefaultConfig(AlgKDS), 5)
	if got := app.stitcher.Config().KeyPointStride; got != 3 {
		t.Errorf("KDS stride = %d, want 3", got)
	}
	base := New(DefaultConfig(AlgVS), 5)
	if got := base.stitcher.Config().KeyPointStride; got != 1 {
		t.Errorf("baseline stride = %d, want 1", got)
	}
}

func TestSMConfiguresSimpleMatching(t *testing.T) {
	app := New(DefaultConfig(AlgSM), 5)
	if app.stitcher.Config().Match.Strategy.String() != "simple-nearest" {
		t.Error("VS_SM did not select simple matching")
	}
}

func TestAllVariantsProduceOutput(t *testing.T) {
	frames := inputFrames(t, 8)
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			app := New(DefaultConfig(alg), len(frames))
			res, err := app.Run(frames, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Primary() == nil {
				t.Fatal("no panorama")
			}
		})
	}
}

func TestRunRejectsWrongFrameCount(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), 8)
	if _, err := app.Run(frames, nil); err == nil {
		t.Error("expected error for mismatched frame count")
	}
}

func TestRunGoldenDeterminism(t *testing.T) {
	frames := inputFrames(t, 6)
	app := New(DefaultConfig(AlgVS), len(frames))
	a, err := app.Run(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := app.Run(frames, fault.New())
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Encode(), b.Encode()
	if len(ea) != len(eb) {
		t.Fatal("encoded outputs differ in size")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("outputs differ at byte %d", i)
		}
	}
}

func TestDecodeDoesNotMutateSharedFrames(t *testing.T) {
	frames := inputFrames(t, 4)
	backup := make([]*imgproc.Gray, len(frames))
	for i, f := range frames {
		backup[i] = f.Clone()
	}
	app := New(DefaultConfig(AlgVS), len(frames))
	if _, err := app.Run(frames, fault.New()); err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if !frames[i].Equal(backup[i]) {
			t.Fatalf("shared input frame %d was mutated", i)
		}
	}
}

func TestRunEncodedAdapter(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), len(frames))
	runApp := app.RunEncoded(frames)
	out, err := runApp(fault.New())
	if err != nil {
		t.Fatalf("RunEncoded: %v", err)
	}
	if len(out) == 0 {
		t.Error("empty encoded output")
	}
}

func TestDecodeRegionAccounting(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), len(frames))
	m := fault.New()
	if _, err := app.Run(frames, m); err != nil {
		t.Fatal(err)
	}
	if m.RegionTaps(fault.GPR, fault.RDecode) == 0 {
		t.Error("decode stage executed no taps")
	}
	// The warp kernels must dominate taps — that is what makes the
	// hot-function share in Fig 8 come out right.
	warpTaps := m.RegionTaps(fault.GPR, fault.RWarpInvoker) + m.RegionTaps(fault.GPR, fault.RRemapBilinear)
	if warpTaps < m.RegionTaps(fault.GPR, fault.RDecode) {
		t.Error("warp taps fewer than decode taps; hot-function profile will be wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	app := New(Config{Algorithm: AlgRFD, DropFraction: -1, KeyPointStride: 0}, 10)
	if app.cfg.DropFraction != 0.10 {
		t.Errorf("DropFraction default = %v", app.cfg.DropFraction)
	}
	if app.cfg.KeyPointStride != 3 {
		t.Errorf("KeyPointStride default = %v", app.cfg.KeyPointStride)
	}
}

func TestSelectDropsSmallInputs(t *testing.T) {
	if d := selectDrops(0, 0.1, 1); len(d) != 0 {
		t.Error("drops on empty input")
	}
	if d := selectDrops(1, 0.9, 1); len(d) != 0 {
		t.Error("drops on single frame")
	}
	d := selectDrops(5, 0.99, 1)
	if len(d) > 4 {
		t.Error("dropped too many frames")
	}
}

// frameCountPlan builds a plan that lands exactly on the first GPR tap
// of a run — decode's m.Cnt(len(frames)) — flipping the given bit. Tap
// index 0 attributes to register Hash64(0)%32, so targeting that
// register with Site 0 and window 1 makes the hit deterministic.
func frameCountPlan(bit int) fault.Plan {
	return fault.Plan{
		Class:  fault.GPR,
		Reg:    int(stats.Hash64(0) % fault.NumRegisters),
		Bit:    bit,
		Site:   0,
		Window: 1,
		Region: fault.RAny,
	}
}

func TestDecodeRejectsNegativeFrameCount(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), len(frames))
	m := fault.NewWithPlan(frameCountPlan(63), 0)
	_, err := app.Run(frames, m)
	if err == nil {
		t.Fatal("sign-flipped frame count was accepted")
	}
	if !strings.Contains(err.Error(), "corrupted frame count") {
		t.Errorf("unexpected error: %v", err)
	}
	if !m.Injected() {
		t.Error("plan did not land on the frame-count tap")
	}
}

func TestDecodeRejectsInflatedFrameCount(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), len(frames))
	// Bit 8 turns 4 into 260: far past the input length, but positive,
	// exercising the upper bound of the validity check.
	m := fault.NewWithPlan(frameCountPlan(8), 0)
	_, err := app.Run(frames, m)
	if err == nil {
		t.Fatal("inflated frame count was accepted")
	}
	if !strings.Contains(err.Error(), "corrupted frame count") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDecodeRejectsHugeFrameWidth(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), len(frames))
	// Site 2 is the first frame's width tap (after the count and the
	// frame index). Bit 39 turns 96 into ~5.5e11 — positive, so it
	// must be stopped by the allocation bound before getFrame, not by
	// NewGray's negative-dimension panic.
	m := fault.NewWithPlan(fault.Plan{
		Class:  fault.GPR,
		Reg:    int(stats.Hash64(2) % fault.NumRegisters),
		Bit:    39,
		Site:   2,
		Window: 1,
		Region: fault.RAny,
	}, 0)
	_, err := app.Run(frames, m)
	if err == nil {
		t.Fatal("huge corrupted frame width was accepted")
	}
	if !strings.Contains(err.Error(), "corrupted frame width") {
		t.Errorf("unexpected error: %v", err)
	}
	if !m.Injected() {
		t.Error("plan did not land on the width tap")
	}
}

func TestDecodeLowBitFlipIsNotAnError(t *testing.T) {
	// Bit 2 turns the count 4 into 0: still within [0, len], so the
	// decode itself succeeds but retains nothing.
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), len(frames))
	m := fault.NewWithPlan(frameCountPlan(2), 0)
	_, err := app.Run(frames, m)
	// Count 0 passes decode validation and must surface as the
	// stitcher's empty-input error, not the corruption error.
	if !errors.Is(err, stitch.ErrNoFrames) {
		t.Errorf("got %v, want stitch.ErrNoFrames", err)
	}
}

func TestRunEncodedPropagatesDecodeError(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), len(frames))
	runApp := app.RunEncoded(frames)
	out, err := runApp(fault.NewWithPlan(frameCountPlan(63), 0))
	if err == nil {
		t.Fatal("RunEncoded swallowed the decode error")
	}
	if out != nil {
		t.Error("RunEncoded returned output alongside an error")
	}
}

func TestRunEncodedRejectsWrongFrameCount(t *testing.T) {
	frames := inputFrames(t, 4)
	app := New(DefaultConfig(AlgVS), 8)
	if _, err := app.RunEncoded(frames)(fault.New()); err == nil {
		t.Error("RunEncoded accepted a mismatched frame count")
	}
}

func TestRunEmptyInputIsNoFrames(t *testing.T) {
	app := New(DefaultConfig(AlgVS), 0)
	if _, err := app.Run(nil, nil); !errors.Is(err, stitch.ErrNoFrames) {
		t.Errorf("empty input: got %v, want stitch.ErrNoFrames", err)
	}
}

func BenchmarkVSBaseline(b *testing.B) {
	frames := inputFrames(b, 8)
	app := New(DefaultConfig(AlgVS), len(frames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Run(frames, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVSInstrumented(b *testing.B) {
	frames := inputFrames(b, 8)
	app := New(DefaultConfig(AlgVS), len(frames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Run(frames, fault.New()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStagedDecodeBoundary checks the tap-zero decode checkpoint: it
// leads the golden checkpoint stream with all-zero counters and a
// phase-only state, so CheckpointIndexFor never returns -1 for any
// class/region plan of the vs golden, and a golden trial resumed there
// — plain or guarded — reproduces the golden output or converges at
// features[0].
func TestStagedDecodeBoundary(t *testing.T) {
	app := New(DefaultConfig(AlgVS), 8)
	staged := app.Staged(inputFrames(t, 8)).(fault.BatchStagedApp)
	golden, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		t.Fatal(err)
	}
	cp := golden.Checkpoints[0]
	if cp.Name != "decode" || cp.Counters != (fault.TapCounters{}) {
		t.Fatalf("first checkpoint = %q at %+v, want decode at zero counters", cp.Name, cp.Counters)
	}
	if st, ok := cp.State.(pipeState); !ok || st.phase != phaseDecode || st.frames != nil {
		t.Fatalf("decode checkpoint state = %+v, want a phase-only state", cp.State)
	}
	for _, class := range []fault.Class{fault.GPR, fault.FPR} {
		for r := fault.Region(0); r <= fault.NumRegions; r++ {
			region := r
			if r == fault.NumRegions {
				region = fault.RAny
			}
			taps := golden.Taps(class, region)
			if taps == 0 {
				continue // no sites for this class in this region
			}
			for _, site := range []uint64{0, taps / 2, taps - 1} {
				p := fault.Plan{Class: class, Region: region, Site: site}
				if golden.CheckpointIndexFor(p) < 0 {
					t.Errorf("CheckpointIndexFor(%v) = -1", p)
				}
			}
		}
	}

	out, err := staged.Resume(fault.New(), cp.State)
	if err != nil || !bytes.Equal(out, golden.Output) {
		t.Fatalf("resume from decode: err=%v, output equal=%v", err, bytes.Equal(out, golden.Output))
	}
	m := fault.New()
	var at string
	_, converged, err := staged.ResumeGuarded(m, cp.State, nil, func(name string, state any) bool {
		at = name
		return m.Counters() == golden.Checkpoints[1].Counters && staged.StateEqual(golden.Checkpoints[1].State, state)
	})
	if err != nil || !converged || at != "features[0]" {
		t.Fatalf("guarded resume from decode: converged=%v at %q err=%v, want convergence at features[0]", converged, at, err)
	}
}
