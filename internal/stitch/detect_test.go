package stitch

import (
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/probe"
)

// opsOf is a machine's op matrix.
func opsOf(m *fault.Machine) (ops [fault.NumRegions][fault.NumOpClasses]uint64) {
	for r := range ops {
		for c := range ops[r] {
			ops[r][c] = m.OpCount(fault.Region(r), fault.OpClass(c))
		}
	}
	return ops
}

// TestDetectFrameReplay checks golden feature replay on the fixture
// frames: CaptureFrame detects exactly what the clean DetectFrame
// does, and DetectFrame replaying the capture on a plan-free machine —
// every FAST row and key point inert, so every one taken from the
// record — is bit-equal to the clean detection and leaves the tap
// counters and op matrix of the instrumented one (behind
// faulttest.GenericSink, which never replays).
func TestDetectFrameReplay(t *testing.T) {
	st := New(DefaultConfig())
	for i, f := range testFrames(t, 8) {
		want := st.DetectFrame(f, probe.Nop{}, nil)
		got, gd := st.CaptureFrame(f, fault.New())
		if gd == nil || !got.EqualBits(&want) {
			t.Fatalf("frame %d: capture differs from the clean detection (record %v)", i, gd != nil)
		}
		mRep, mRef := fault.New(), fault.New()
		rep := st.DetectFrame(f, mRep, gd)
		st.DetectFrame(f, faulttest.GenericSink{Sink: mRef}, gd)
		if !rep.EqualBits(&want) {
			t.Errorf("frame %d: replayed features differ from the clean detection", i)
		}
		if mRep.Counters() != mRef.Counters() || opsOf(mRep) != opsOf(mRef) {
			t.Errorf("frame %d: replay accounting differs from the instrumented detection:\n replay %+v\n    ref %+v",
				i, mRep.Counters(), mRef.Counters())
		}
	}
}
