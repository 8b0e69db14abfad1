package vs

import (
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/features"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stitch"
)

// TestResumeReportsOwnBoundaryFirst checks that a guarded resume from
// any golden checkpoint reports that checkpoint's own boundary before
// any other: the first guard call carries the checkpoint's name. A
// stage-timing decorator attributes a resumed suffix from that first
// call on, so a resume that skipped it would leave its leading stage
// unattributed; the campaign guard ignores the call because the plan is
// still unresolved there.
func TestResumeReportsOwnBoundaryFirst(t *testing.T) {
	app := New(DefaultConfig(AlgVS), 8)
	staged := app.Staged(inputFrames(t, 8)).(fault.BatchStagedApp)
	golden, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range golden.Checkpoints {
		var first string
		calls := 0
		_, _, err := staged.ResumeGuarded(fault.New(), cp.State, staged.PrepareResume(cp.State), func(name string, _ any) bool {
			if calls == 0 {
				first = name
			}
			calls++
			return false
		})
		if err != nil {
			t.Fatalf("%s: resume: %v", cp.Name, err)
		}
		if calls == 0 || first != cp.Name {
			t.Errorf("resume from %s: first guard call %q (of %d), want %q", cp.Name, first, calls, cp.Name)
		}
	}
}

// TestStateEqualLiveState is the table test of the convergence guard's
// state compare over every golden boundary: a change to anything the
// rest of the run reads — a decoded frame, a feature before
// registration, the features of the reference frame or of a frame not
// yet registered — breaks the equality, while the features of the
// other registered frames and every feature at a composite boundary
// are dead and do not. At each pair boundary exactly one registered
// frame's features are live: the reference frame's.
func TestStateEqualLiveState(t *testing.T) {
	app := New(DefaultConfig(AlgVS), 8)
	staged := app.Staged(inputFrames(t, 8)).(fault.BatchStagedApp)
	golden, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		t.Fatal(err)
	}
	bumped := func(f stitch.FrameFeatures) stitch.FrameFeatures {
		kps := append([]features.KeyPoint(nil), f.KPs...)
		kps[0].Score++
		return stitch.FrameFeatures{KPs: kps, Descs: f.Descs}
	}
	// equalWith reports whether the golden state still equals a live
	// copy whose features at i are changed.
	equalWith := func(g pipeState, i int) bool {
		live := g
		live.feats = append([]stitch.FrameFeatures(nil), g.feats...)
		live.feats[i] = bumped(g.feats[i])
		return staged.StateEqual(g, &live)
	}
	pairs := 0
	for _, cp := range golden.Checkpoints {
		g := cp.State.(pipeState)
		if live := g; !staged.StateEqual(g, &live) {
			t.Fatalf("%s: an unchanged live state differs", cp.Name)
		}
		if len(g.frames) > 0 {
			live := g
			live.frames = append([]*imgproc.Gray(nil), g.frames...)
			f := imgproc.NewGray(g.frames[0].W, g.frames[0].H)
			copy(f.Pix, g.frames[0].Pix)
			f.Pix[0]++
			live.frames[0] = f
			if staged.StateEqual(g, &live) {
				t.Errorf("%s: a changed frame compares equal", cp.Name)
			}
		}
		switch g.phase {
		case phaseFeatures:
			if g.featDone > 0 && equalWith(g, 0) {
				t.Errorf("%s: changed features before registration compare equal", cp.Name)
			}
		case phasePairs:
			pairs++
			liveRegistered := 0
			for i := range g.feats {
				live := !equalWith(g, i)
				if i >= g.align.Next && !live {
					t.Errorf("%s: changed features of unregistered frame %d compare equal", cp.Name, i)
				}
				if i < g.align.Next && live {
					liveRegistered++
				}
			}
			if liveRegistered != 1 {
				t.Errorf("%s: %d registered frames' features are live, want 1 (the reference)", cp.Name, liveRegistered)
			}
		case phaseComposite:
			for i := range g.feats {
				if !equalWith(g, i) {
					t.Errorf("%s: features of frame %d are live at a composite boundary", cp.Name, i)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("the golden run recorded no pair boundary")
	}
}

// TestGoldenRecordsNeedGoldenFrames checks that feature replay keys on
// frame identity. A trial resumed at the decode boundary carries the
// golden feature records but decodes frames of its own; when its input
// differs from the golden input (here a bright square in every frame,
// whose corners the golden records lack), its features must be the
// clean detection of its own frames, never the golden records — even
// on a plan-free machine, for which every FAST row and key point is
// inert.
func TestGoldenRecordsNeedGoldenFrames(t *testing.T) {
	frames := inputFrames(t, 8)
	app := New(DefaultConfig(AlgVS), len(frames))
	g, err := fault.CaptureGoldenStaged(app.Staged(frames))
	if err != nil {
		t.Fatal(err)
	}
	decode := g.Checkpoints[0].State.(pipeState)
	if g.Checkpoints[0].Name != "decode" || decode.golden == nil || len(decode.golden.recs) != len(frames) {
		t.Fatalf("the decode checkpoint %q carries no golden records", g.Checkpoints[0].Name)
	}
	corrupt := make([]*imgproc.Gray, len(frames))
	for i, f := range frames {
		corrupt[i] = f.Clone()
		for y := 30; y < 38; y++ {
			for x := 40; x < 48; x++ {
				corrupt[i].Set(x, y, 255)
			}
		}
	}
	var feats []stitch.FrameFeatures
	guard := func(name string, st any) bool {
		if name != "align" {
			return false
		}
		feats = st.(*pipeState).feats
		return true
	}
	if _, converged, err := app.runFrom(decode, corrupt, fault.New(), nil, guard); err != nil || !converged {
		t.Fatalf("resume did not reach the align boundary: converged=%v err=%v", converged, err)
	}
	changed := 0
	for i, f := range corrupt {
		want := app.stitcher.DetectFrame(f, probe.Nop{}, nil)
		if !feats[i].EqualBits(&want) {
			t.Errorf("frame %d: features of a corrupted own-decoded frame are not its clean detection", i)
		}
		if golden := app.stitcher.DetectFrame(frames[i], probe.Nop{}, nil); !want.EqualBits(&golden) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the corruption changed no frame's features")
	}
}
