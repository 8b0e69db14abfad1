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
// frame pairs ("pair[i]"), before compositing ("composite") and, for
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
// mutated.
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

// StateEqual compares two pipeline states of the same boundary on
// their bits: phase and progress counters, frame bytes, key points and
// descriptors, the full registration state and the composite state,
// whose canvas in progress is compared against the golden snapshot's
// expansion pixel by pixel. Frames and feature storage shared with the
// golden snapshot short-circuit by pointer identity, so the common
// converged case costs a few pointer compares plus a deep scan of only
// the entries the trial recomputed.
func (s *stagedApp) StateEqual(a, b any) bool {
	sa, okA := a.(pipeState)
	sb, okB := b.(pipeState)
	if !okA || !okB {
		return false
	}
	if sa.phase != sb.phase || sa.featDone != sb.featDone ||
		len(sa.frames) != len(sb.frames) || len(sa.feats) != len(sb.feats) {
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
	for i := range sa.feats {
		if !sa.feats[i].EqualBits(&sb.feats[i]) {
			return false
		}
	}
	return sa.align.EqualBits(&sb.align) && sa.comp.EqualBits(&sb.comp)
}
