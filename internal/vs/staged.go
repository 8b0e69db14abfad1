package vs

import (
	"bytes"
	"fmt"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
)

// stagedApp is the fault.StagedApp view of an App over a fixed input:
// the same computation as RunEncoded, expressed as resumable stages so
// campaigns can skip the fault-free prefix of each trial.
type stagedApp struct {
	app    *App
	frames []*imgproc.Gray
}

// The batched campaign seams (per-bucket prepare, guarded resume,
// bit-exact state equality) are part of the contract.
var _ fault.BatchStagedApp = (*stagedApp)(nil)

// Staged returns the stage-resumable campaign view of the app over the
// given input frames. RunFull with a nil snap hook executes exactly
// what RunEncoded(frames) would — same taps, same bytes — so one
// golden capture serves both paths.
func (a *App) Staged(frames []*imgproc.Gray) fault.StagedApp {
	return &stagedApp{app: a, frames: frames}
}

// RunFull executes every stage: decode, per-frame features, the
// registration pass, compositing. Snapshot boundaries are placed at tap
// zero before decode ("decode"), between per-frame detections
// ("features[k]"), before the registration pass ("align"), between
// frame pairs ("pair[i]"), inside each pair after matching and every
// stitch.RANSACEvery sampling iterations of its RANSAC searches
// ("pair[i]/homography@k", "pair[i]/affine@k"), before compositing
// ("composite") and, for
// overwrite canvases without exposure compensation, before every
// stitch.CompositeEvery-th warp of a segment ("composite[i]"). A
// composite boundary retains its canvas compactly — a coverage bitset
// plus one byte per covered pixel — never as float buffers; feather
// and gain canvases keep the composite atomic. The decode boundary's
// state carries only the phase: a trial resumed there decodes the
// app's own input frames again, so the golden run retains no extra
// copy of them. When snapshots are taken the decoded frames are
// referenced by the golden run forever, so they are not recycled into
// the frame pool.
func (s *stagedApp) RunFull(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
	if s.app.nFrames >= 0 && len(s.frames) != s.app.nFrames {
		return nil, fmt.Errorf("vs: got %d frames, configured for %d", len(s.frames), s.app.nFrames)
	}
	var snapState func(string, pipeState)
	if snap != nil {
		snapState = func(name string, st pipeState) { snap(name, st) }
	}
	res, _, err := s.app.runFrom(pipeState{phase: phaseDecode}, s.frames, m, snapState, nil)
	if err != nil {
		return nil, err
	}
	return res.Encode(), nil
}

// Resume executes the stages from the checkpointed boundary onward. A
// later boundary's shared golden state is used through a value copy:
// the snapshot's slices are capacity-capped, so the copy's appends
// allocate fresh storage, and a compact composite canvas is expanded
// into a canvas of the run's own, so the golden snapshot — including
// the decoded frames, which therefore must not be recycled — is never
// mutated. A pair's correspondences are shared the same way: a trial
// resumed inside a pair only reads them.
func (s *stagedApp) Resume(m *fault.Machine, state any) ([]byte, error) {
	out, _, err := s.ResumeGuarded(m, state, nil, nil)
	return out, err
}

// PrepareResume has nothing to amortize per bucket: the composite's
// canvas plan, the one tap-free value a bucket could share, is part
// of the golden state of every composite boundary.
func (s *stagedApp) PrepareResume(any) any { return nil }

// ResumeGuarded is Resume with the convergence guard, consulted at
// every stage boundary the resumed suffix crosses, the resume
// boundary itself first.
func (s *stagedApp) ResumeGuarded(m *fault.Machine, state, _ any, guard fault.BoundaryGuard) ([]byte, bool, error) {
	st, ok := state.(pipeState)
	if !ok {
		return nil, false, fmt.Errorf("vs: resume state is %T, want pipeState", state)
	}
	res, converged, err := s.app.runFrom(st, s.frames, m, nil, guard)
	if converged {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	return res.Encode(), false, nil
}

// StateEqual compares two pipeline states of the same boundary on the
// bits of everything the rest of the run reads — the state the suffix
// turns into the encoded panoramas, which are the app's whole output:
//
//   - always the phase and the decoded frames (the composite warps
//     them);
//   - before registration, every feature computed so far and the
//     detection progress;
//   - at pair boundaries, the registration loop state, every
//     registration, the pair in progress and the features of the
//     reference frame and of the frames not yet registered
//     (stitch.AlignState.EqualLive);
//   - at composite boundaries, the registrations and the composite
//     state, whose canvas in progress is compared against the golden
//     snapshot's expansion pixel by pixel.
//
// Frame reports, the discard count and the features of frames no pair
// reads again are dead: no later stage turns them into output bytes.
// Frames and feature storage shared with the golden snapshot
// short-circuit by pointer identity, so the common converged case
// costs a few pointer compares plus a deep scan of only the entries
// the trial recomputed. Either side may be a pipeState or, as the
// live state runFrom hands its guard, a *pipeState.
func (s *stagedApp) StateEqual(a, b any) bool {
	sa, okA := pipeStateOf(a)
	sb, okB := pipeStateOf(b)
	if !okA || !okB || sa.phase != sb.phase || len(sa.frames) != len(sb.frames) {
		return false
	}
	for i := range sa.frames {
		fa, fb := sa.frames[i], sb.frames[i]
		if fa == fb {
			continue
		}
		if fa == nil || fb == nil || fa.W != fb.W || fa.H != fb.H || !bytes.Equal(fa.Pix, fb.Pix) {
			return false
		}
	}
	switch sa.phase {
	case phaseDecode:
		return true
	case phaseFeatures:
		if sa.featDone != sb.featDone || len(sa.feats) != len(sb.feats) {
			return false
		}
		for i := range sa.feats {
			if !sa.feats[i].EqualBits(&sb.feats[i]) {
				return false
			}
		}
		return true
	case phasePairs:
		return sa.align.EqualLive(&sb.align, sa.feats, sb.feats)
	default:
		return sa.align.EqualRegs(&sb.align) && sa.comp.EqualBits(&sb.comp)
	}
}

// pipeStateOf unwraps a boundary state handed to StateEqual.
func pipeStateOf(x any) (pipeState, bool) {
	switch st := x.(type) {
	case pipeState:
		return st, true
	case *pipeState:
		if st != nil {
			return *st, true
		}
	}
	return pipeState{}, false
}
