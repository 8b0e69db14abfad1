// Bit-exact state equality for the convergence guard: a batched
// campaign declares a resumed trial converged only when its pipeline
// state at a stage boundary is indistinguishable — on IEEE-754 bits,
// not float comparison — from the golden snapshot of the same
// boundary, so +0/-0 and NaN-payload differences count as divergence.
package stitch

import (
	"bytes"
	"math"

	"vsresil/internal/geom"
)

// homographyEqualBits compares two transforms on their raw float bits.
func homographyEqualBits(a, b geom.Homography) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// EqualBits reports bit-exact equality with b. Resumed trials share
// the golden snapshot's backing arrays for the prefix they did not
// recompute, so element pointer identity short-circuits most of the
// scan.
func (f *FrameFeatures) EqualBits(g *FrameFeatures) bool {
	if len(f.KPs) != len(g.KPs) || len(f.Descs) != len(g.Descs) {
		return false
	}
	if !(len(f.KPs) > 0 && &f.KPs[0] == &g.KPs[0]) {
		for i := range f.KPs {
			ka, kb := &f.KPs[i], &g.KPs[i]
			if ka.X != kb.X || ka.Y != kb.Y || ka.Score != kb.Score ||
				math.Float64bits(ka.Angle) != math.Float64bits(kb.Angle) {
				return false
			}
		}
	}
	if !(len(f.Descs) > 0 && &f.Descs[0] == &g.Descs[0]) {
		for i := range f.Descs {
			if f.Descs[i] != g.Descs[i] {
				return false
			}
		}
	}
	return true
}

// EqualBits reports bit-exact equality of two registration states,
// including the unexported loop state and every recorded report.
func (a *AlignState) EqualBits(b *AlignState) bool {
	if a.N != b.N || a.Next != b.Next || a.segment != b.segment ||
		a.refFrame != b.refFrame || a.failStreak != b.failStreak ||
		a.discarded != b.discarded ||
		len(a.regs) != len(b.regs) || len(a.reports) != len(b.reports) {
		return false
	}
	if !homographyEqualBits(a.refToSegment, b.refToSegment) {
		return false
	}
	for i := range a.regs {
		ra, rb := &a.regs[i], &b.regs[i]
		if ra.frame != rb.frame || ra.segment != rb.segment || !homographyEqualBits(ra.h, rb.h) {
			return false
		}
	}
	for i := range a.reports {
		ra, rb := &a.reports[i], &b.reports[i]
		if ra.Index != rb.Index || ra.Status != rb.Status || ra.Matches != rb.Matches ||
			ra.Inliers != rb.Inliers || ra.Segment != rb.Segment || !homographyEqualBits(ra.H, rb.H) {
			return false
		}
	}
	return true
}

// EqualBits reports bit-exact equality of two composite states: the
// loop position, the canvas plan, every finished panorama and the
// canvas of the segment in progress. A canvas is compared in whatever
// form each side holds it — a golden snapshot's compact canvas against
// a trial's live float canvas compares every touched flag, weight and
// value against the snapshot's expansion — never by digest.
func (c *CompositeState) EqualBits(d *CompositeState) bool {
	if c.seg != d.seg || c.next != d.next || c.placed != d.placed ||
		!c.plan.equal(d.plan) || len(c.panos) != len(d.panos) {
		return false
	}
	for i := range c.panos {
		if !c.panos[i].equal(d.panos[i]) {
			return false
		}
	}
	switch {
	case c.canvas != nil && d.canvas != nil:
		return c.canvas.EqualBits(d.canvas)
	case c.canvas != nil:
		return d.saved.Matches(c.canvas)
	case d.canvas != nil:
		return c.saved.Matches(d.canvas)
	default:
		return c.saved.Equal(d.saved)
	}
}

func (p *CompositePlan) equal(q *CompositePlan) bool {
	if p == q {
		return true
	}
	if p == nil || q == nil || len(p.segs) != len(q.segs) {
		return false
	}
	for i := range p.segs {
		if p.segs[i] != q.segs[i] {
			return false
		}
	}
	return true
}

func (p *Panorama) equal(q *Panorama) bool {
	if p == q {
		return true
	}
	return p.Bounds == q.Bounds && p.Frames == q.Frames &&
		p.Image.W == q.Image.W && p.Image.H == q.Image.H && bytes.Equal(p.Image.Pix, q.Image.Pix)
}
