package stitch

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/warp"
)

// alignAll runs the feature and registration passes over frames.
func alignAll(st *Stitcher, frames []*imgproc.Gray) AlignState {
	feats := make([]FrameFeatures, len(frames))
	for i, f := range frames {
		feats[i] = st.DetectFrame(f, probe.Nop{}, nil)
	}
	a := st.BeginAlign(frames, probe.Nop{})
	for a.Next < a.N {
		st.AlignStep(feats, &a, nil, nil, probe.Nop{})
	}
	return a
}

// compositeSnapshots runs a composite pass that snapshots the state at
// every boundary, as a golden capture does, checking at each interior
// boundary that the compact canvas expands back bit-equal to the live
// one. It returns the boundary names, the snapshots and the output.
func compositeSnapshots(t *testing.T, st *Stitcher, frames []*imgproc.Gray, a *AlignState) ([]string, []CompositeState, []byte) {
	t.Helper()
	c := st.BeginComposite(frames, a)
	var names []string
	var snaps []CompositeState
	res, converged, err := st.CompositeSteps(frames, a, &c, func(name string) bool {
		names = append(names, name)
		snaps = append(snaps, c.Snapshot())
		if c.canvas != nil {
			s := c.canvas.Snapshot()
			r := s.Restore()
			if !r.EqualBits(c.canvas) || !s.Matches(c.canvas) {
				t.Errorf("%s: compact canvas does not round-trip", name)
			}
			r.Recycle()
		}
		return false
	}, probe.Nop{})
	if err != nil || converged {
		t.Fatalf("composite: converged=%v err=%v", converged, err)
	}
	return names, snaps, res.Encode()
}

// TestCompositeBoundaries checks the stepwise composite: boundaries sit
// before the pass and before every CompositeEvery-th warp of a segment,
// every interior snapshot holds a compact canvas and no float one, the
// hook changes no output byte, and resuming from any snapshot
// reproduces the output.
func TestCompositeBoundaries(t *testing.T) {
	frames := testFrames(t, 8)
	st := New(DefaultConfig())
	a := alignAll(st, frames)
	want, err := st.Composite(frames, &a, probe.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	names, snaps, out := compositeSnapshots(t, st, frames, &a)
	if !bytes.Equal(out, want.Encode()) {
		t.Fatal("boundary hook changed the composite output")
	}
	var expect []string
	expect = append(expect, "composite")
	for seg := range a.segment + 1 {
		placed := 0
		for i, r := range a.regs {
			if r.segment != seg {
				continue
			}
			if placed%CompositeEvery == 0 && (seg > 0 || placed > 0) {
				expect = append(expect, fmt.Sprintf("composite[%d]", i))
			}
			placed++
		}
	}
	if !slices.Equal(names, expect) || len(names) < 2 {
		t.Fatalf("boundaries %v, want %v", names, expect)
	}
	for i, s := range snaps {
		if s.canvas != nil || (i > 0) != (s.saved != nil) {
			t.Errorf("%s: snapshot holds a float canvas or lacks its compact one", names[i])
		}
		c := s
		res, _, err := st.CompositeSteps(frames, &a, &c, nil, probe.Nop{})
		if err != nil || !bytes.Equal(res.Encode(), out) {
			t.Errorf("%s: resumed composite err=%v, output equal=%v", names[i], err, err == nil && bytes.Equal(res.Encode(), out))
		}
		if !s.EqualBits(&snaps[i]) {
			t.Errorf("%s: resuming mutated the snapshot", names[i])
		}
	}
}

// TestCompositeAtomicForBlendedCanvases checks that feather and
// gain-compensated canvases keep the composite atomic: their state
// has no compact encoding, so the pass reports only its start.
func TestCompositeAtomicForBlendedCanvases(t *testing.T) {
	frames := testFrames(t, 8)
	feather := DefaultConfig()
	feather.Blend = warp.BlendFeather
	gain := DefaultConfig()
	gain.ExposureCompensation = true
	for name, cfg := range map[string]Config{"feather": feather, "gain": gain} {
		st := New(cfg)
		a := alignAll(st, frames)
		names, _, _ := compositeSnapshots(t, st, frames, &a)
		if !slices.Equal(names, []string{"composite"}) {
			t.Errorf("%s: boundaries %v, want only composite", name, names)
		}
	}
}

// TestCompositeStateEqualBits checks the composite half of the
// convergence guard's state compare: a fault-free run resumed from one
// interior snapshot reaches the next boundary bit-equal to the golden
// snapshot there (live float canvas against compact canvas), and a
// change to the loop position, a finished panorama or one canvas value
// bit breaks the equality.
func TestCompositeStateEqualBits(t *testing.T) {
	frames := testFrames(t, 8)
	st := New(DefaultConfig())
	a := alignAll(st, frames)
	names, snaps, _ := compositeSnapshots(t, st, frames, &a)
	if len(snaps) < 3 {
		t.Fatalf("boundaries %v: need two interior ones", names)
	}
	golden := &snaps[2]
	reach := func() CompositeState {
		c := snaps[1]
		var at CompositeState
		_, converged, err := st.CompositeSteps(frames, &a, &c, func(name string) bool {
			if name != names[2] {
				return false
			}
			at = c
			return true
		}, probe.Nop{})
		if err != nil || !converged {
			t.Fatalf("resume from %s did not reach %s: err=%v", names[1], names[2], err)
		}
		return at
	}
	if live := reach(); !golden.EqualBits(&live) || !live.EqualBits(golden) {
		t.Fatalf("fault-free state at %s differs from the golden snapshot", names[2])
	}
	mutations := map[string]func(c *CompositeState){
		"seg":    func(c *CompositeState) { c.seg++ },
		"next":   func(c *CompositeState) { c.next++ },
		"placed": func(c *CompositeState) { c.placed++ },
		"panorama": func(c *CompositeState) {
			c.panos = append(c.panos, &Panorama{Image: imgproc.NewGray(1, 1)})
		},
		"canvas value bit": func(c *CompositeState) {
			b, img := c.canvas.B, c.canvas.Resolve(nil)
			for y := b.MinY; y < b.MaxY; y++ {
				for x := b.MinX; x < b.MaxX; x++ {
					if v := img.At(x-b.MinX, y-b.MinY); v != 0 {
						c.canvas.Accumulate(x, y, float64(v^1), 1)
						return
					}
				}
			}
		},
	}
	for name, mutate := range mutations {
		live := reach()
		mutate(&live)
		if golden.EqualBits(&live) {
			t.Errorf("%s: mutated state still equals the golden snapshot", name)
		}
	}
}
