// Compact canvas snapshots for the composite's golden checkpoints. An
// overwrite canvas without gain compensation holds, at every touched
// pixel, exactly float64(v) for the 8-bit sample v last written there
// with weight 1, and at every untouched pixel 0 with weight 0. Its full
// state is therefore the touched set plus one byte per touched pixel:
// a snapshot stores a coverage bitset and the touched pixels' bytes in
// index order, under 1.2 bytes per pixel against the 17 of the float
// buffers.
package warp

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
)

// CanvasSnapshot is the compact, immutable form of an overwrite canvas
// without gain compensation. Restore expands it back into a float
// canvas bit-equal to the one it was taken from.
type CanvasSnapshot struct {
	B Bounds
	// covered is the touched-pixel bitset, bit i%64 of word i/64 for
	// buffer offset i; pix holds the touched pixels' samples in offset
	// order.
	covered []uint64
	pix     []uint8
}

// compact reports whether the canvas's state is fully described by a
// CanvasSnapshot: overwrite blending without gain compensation. It
// depends only on the canvas configuration, never on its content.
func (c *Canvas) compact() bool {
	return c.Mode == BlendOverwrite && !c.GainCompensation
}

// Snapshot encodes the canvas compactly. It panics when the canvas
// blends, compensates gain or holds a touched value other than an 8-bit sample with
// weight 1, which the overwrite blend never produces.
func (c *Canvas) Snapshot() *CanvasSnapshot {
	if !c.compact() {
		panic("warp: snapshot of a blended or gain-compensated canvas")
	}
	s := &CanvasSnapshot{B: c.B, covered: make([]uint64, (len(c.touched)+63)/64)}
	n := 0
	for i, t := range c.touched {
		if t {
			s.covered[i/64] |= 1 << (i % 64)
			n++
		}
	}
	s.pix = make([]uint8, 0, n)
	for i, t := range c.touched {
		if !t {
			continue
		}
		v := c.values[i]
		if c.weights[i] != 1 || v != float64(uint8(v)) {
			panic("warp: overwrite canvas holds a non-sample value")
		}
		s.pix = append(s.pix, uint8(v))
	}
	return s
}

// Restore expands the snapshot into a new overwrite canvas on pooled
// buffers, bit-equal to the canvas it was taken from. The snapshot is
// not modified.
func (s *CanvasSnapshot) Restore() *Canvas {
	c := NewCanvasMode(s.B, BlendOverwrite)
	j := 0
	for w, word := range s.covered {
		for word != 0 {
			i := 64*w + bits.TrailingZeros64(word)
			word &= word - 1
			c.values[i] = float64(s.pix[j])
			c.weights[i] = 1
			c.touched[i] = true
			j++
		}
	}
	return c
}

// Matches reports whether c is bit-equal to the snapshot's expansion:
// same bounds and mode, and at every offset the same touched flag,
// weight bits and value bits as Restore would produce. Floats are
// compared on their IEEE-754 bits, so a -0 or a NaN payload where the
// expansion holds +0 is a mismatch.
func (s *CanvasSnapshot) Matches(c *Canvas) bool {
	if s == nil || c == nil || c.B != s.B || !c.compact() {
		return false
	}
	one := math.Float64bits(1)
	j := 0
	for i, t := range c.touched {
		if s.covered[i/64]&(1<<(i%64)) == 0 {
			if t || math.Float64bits(c.values[i]) != 0 || math.Float64bits(c.weights[i]) != 0 {
				return false
			}
			continue
		}
		if !t || math.Float64bits(c.weights[i]) != one ||
			math.Float64bits(c.values[i]) != math.Float64bits(float64(s.pix[j])) {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether two snapshots encode the same canvas.
func (s *CanvasSnapshot) Equal(o *CanvasSnapshot) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.B == o.B && slices.Equal(s.covered, o.covered) && bytes.Equal(s.pix, o.pix)
}

// EqualBits reports whether two canvases hold bit-identical state:
// bounds, mode, gain flag, touched flags and the IEEE-754 bits of every
// value and weight.
func (c *Canvas) EqualBits(o *Canvas) bool {
	if c.B != o.B || c.Mode != o.Mode || c.GainCompensation != o.GainCompensation ||
		len(c.touched) != len(o.touched) || !slices.Equal(c.touched, o.touched) {
		return false
	}
	for i := range c.values {
		if math.Float64bits(c.values[i]) != math.Float64bits(o.values[i]) ||
			math.Float64bits(c.weights[i]) != math.Float64bits(o.weights[i]) {
			return false
		}
	}
	return true
}
