package warp

import (
	"math"
	"testing"

	"vsresil/internal/geom"
)

// partialCanvas returns an overwrite canvas half covered by a warped
// gradient, so it holds touched and untouched pixels, and the offsets
// of one of each.
func partialCanvas(t *testing.T) (c *Canvas, touched, untouched int) {
	t.Helper()
	c = NewCanvas(Bounds{MinX: -3, MinY: 2, MaxX: 37, MaxY: 27})
	if _, err := WarpOntoCanvas(gradientImage(20, 30), geom.Translation(-1.5, 4.25), c, nil); err != nil {
		t.Fatal(err)
	}
	touched, untouched = -1, -1
	for i, tt := range c.touched {
		if tt && touched < 0 && c.values[i] != 0 {
			touched = i
		}
		if !tt && untouched < 0 {
			untouched = i
		}
	}
	if touched < 0 || untouched < 0 {
		t.Fatal("canvas is not partially covered")
	}
	return c, touched, untouched
}

// TestCanvasSnapshotRoundTrip checks the compact encoding: a restored
// snapshot is bit-equal to the canvas it was taken from, matches it,
// and costs a coverage bit plus one byte per touched pixel.
func TestCanvasSnapshotRoundTrip(t *testing.T) {
	c, _, _ := partialCanvas(t)
	s := c.Snapshot()
	r := s.Restore()
	if !r.EqualBits(c) || !s.Matches(c) || !s.Matches(r) {
		t.Fatalf("restore equal=%v, snapshot matches source=%v, restore=%v", r.EqualBits(c), s.Matches(c), s.Matches(r))
	}
	if !r.Snapshot().Equal(s) {
		t.Error("snapshot of the restored canvas differs")
	}
	n := len(c.touched)
	covered := 0
	for _, tt := range c.touched {
		if tt {
			covered++
		}
	}
	if len(s.covered) != (n+63)/64 || len(s.pix) != covered {
		t.Errorf("snapshot holds %d bitset words and %d bytes, want %d and %d", len(s.covered), len(s.pix), (n+63)/64, covered)
	}
	if out, want := r.Resolve(nil), c.Resolve(nil); string(out.Pix) != string(want.Pix) {
		t.Error("restored canvas resolves to different pixels")
	}
}

// TestCanvasSnapshotRejectsSingleBitFlips is the convergence guard's
// canvas comparison table: one flipped bit in a value, a weight or a
// touched flag — at a touched or an untouched pixel — must make a live
// canvas differ from the snapshot's expansion, and from the canvas the
// snapshot was taken of.
func TestCanvasSnapshotRejectsSingleBitFlips(t *testing.T) {
	flipF := func(f *float64, bit uint) { *f = math.Float64frombits(math.Float64bits(*f) ^ 1<<bit) }
	cases := []struct {
		name string
		flip func(c *Canvas, touched, untouched int)
	}{
		{"touched value low mantissa bit", func(c *Canvas, i, _ int) { flipF(&c.values[i], 0) }},
		{"touched value sign bit", func(c *Canvas, i, _ int) { flipF(&c.values[i], 63) }},
		{"touched flag cleared", func(c *Canvas, i, _ int) { c.touched[i] = false }},
		{"untouched flag set", func(c *Canvas, _, j int) { c.touched[j] = true }},
		{"untouched value to -0", func(c *Canvas, _, j int) { flipF(&c.values[j], 63) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, i, j := partialCanvas(t)
			s := c.Snapshot()
			live := s.Restore()
			if !s.Matches(live) {
				t.Fatal("unmodified restore does not match")
			}
			tc.flip(live, i, j)
			if s.Matches(live) {
				t.Error("snapshot matches the flipped canvas")
			}
			if c.EqualBits(live) {
				t.Error("source canvas bit-equals the flipped canvas")
			}
		})
	}
}

// TestCanvasSnapshotNeedsOverwrite checks that only overwrite canvases
// without gain compensation are compact, and that a snapshot never
// matches a canvas of another geometry.
func TestCanvasSnapshotNeedsOverwrite(t *testing.T) {
	feather := NewCanvasMode(Bounds{MaxX: 4, MaxY: 4}, BlendFeather)
	gain := NewCanvas(Bounds{MaxX: 4, MaxY: 4})
	gain.GainCompensation = true
	if feather.compact() || gain.compact() || !NewCanvas(Bounds{MaxX: 4, MaxY: 4}).compact() {
		t.Fatal("compact must hold exactly for overwrite canvases without gain")
	}
	for _, c := range []*Canvas{feather, gain} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Snapshot of mode %d gain %v did not panic", c.Mode, c.GainCompensation)
				}
			}()
			c.Snapshot()
		}()
	}
	s := NewCanvas(Bounds{MaxX: 4, MaxY: 4}).Snapshot()
	if s.Matches(NewCanvas(Bounds{MaxX: 4, MaxY: 5})) || s.Matches(gain) {
		t.Error("snapshot matches a canvas of other bounds or with gain compensation")
	}
}
