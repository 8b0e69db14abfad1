package vs

import (
	"bytes"
	"fmt"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/stitch"
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
// frame pairs ("pair[i]") and before compositing ("composite").
// Compositing stays atomic because its float canvases are the expensive
// part to retain. The decode boundary's state carries only the phase:
// a trial resumed there decodes the app's own input frames again, so
// the golden run retains no extra copy of them. When snapshots are
// taken the decoded frames are referenced by the golden run forever,
// so they are not recycled into the frame pool.
func (s *stagedApp) RunFull(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
	if s.app.nFrames >= 0 && len(s.frames) != s.app.nFrames {
		return nil, fmt.Errorf("vs: got %d frames, configured for %d", len(s.frames), s.app.nFrames)
	}
	var snapState func(string, pipeState)
	if snap != nil {
		snap("decode", pipeState{phase: phaseDecode})
		snapState = func(name string, st pipeState) { snap(name, st) }
	}
	retained, err := decode(s.app, s.frames, m)
	if err != nil {
		return nil, err
	}
	res, err := s.app.runFrom(pipeState{frames: retained}, m, snapState, snap == nil)
	if err != nil {
		return nil, err
	}
	return res.Encode(), nil
}

// start returns the pipeline state a run entering at state executes
// from. For the decode boundary that is freshly decoded frames, which
// belong to this run alone (owned), so the run may recycle them; any
// later boundary's state is shared with the golden run and returned
// as is.
func (s *stagedApp) start(m *fault.Machine, state any) (st pipeState, owned bool, err error) {
	st, ok := state.(pipeState)
	if !ok {
		return st, false, fmt.Errorf("vs: resume state is %T, want pipeState", state)
	}
	if st.phase != phaseDecode {
		return st, false, nil
	}
	frames, err := decode(s.app, s.frames, m)
	if err != nil {
		return st, false, err
	}
	return pipeState{frames: frames}, true, nil
}

// Resume executes the stages from the checkpointed boundary onward. A
// later boundary's shared golden state is used through a value copy:
// the snapshot's slices are capacity-capped, so the copy's appends
// allocate fresh storage and the golden snapshot — including the
// decoded frames, which therefore must not be recycled — is never
// mutated.
func (s *stagedApp) Resume(m *fault.Machine, state any) ([]byte, error) {
	st, owned, err := s.start(m, state)
	if err != nil {
		return nil, err
	}
	res, err := s.app.runFrom(st, m, nil, owned)
	if err != nil {
		return nil, err
	}
	return res.Encode(), nil
}

// PrepareResume builds the per-bucket shared view: for the composite
// boundary, the canvas plan (per-segment bounds + frame counts), which
// is a tap-free pure function of the immutable golden state and hence
// identical across every trial in the bucket. Earlier boundaries have
// nothing to amortize beyond the state snapshot itself.
func (s *stagedApp) PrepareResume(state any) any {
	st, ok := state.(pipeState)
	if !ok || st.phase != phaseComposite {
		return nil
	}
	return s.app.stitcher.PlanComposite(st.frames, &st.align)
}

// ResumeGuarded is Resume with the bucket seams: the shared composite
// plan (when the boundary is the composite) and the convergence guard,
// consulted at every stage boundary the resumed suffix crosses.
func (s *stagedApp) ResumeGuarded(m *fault.Machine, state, prep any, guard fault.BoundaryGuard) ([]byte, bool, error) {
	st, owned, err := s.start(m, state)
	if err != nil {
		return nil, false, err
	}
	plan, _ := prep.(*stitch.CompositePlan)
	res, converged, err := s.app.runFromGuarded(st, m, nil, guard, plan, owned)
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
// descriptors, and the full registration state. Frames and feature
// storage shared with the golden snapshot short-circuit by pointer
// identity, so the common converged case costs a few pointer compares
// plus a deep scan of only the entries the trial recomputed.
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
	return sa.align.EqualBits(&sb.align)
}
