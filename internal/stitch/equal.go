// Bit-exact state equality for the convergence guard: a batched
// campaign declares a resumed trial converged only when the state the
// rest of its run reads at a stage boundary is indistinguishable — on
// IEEE-754 bits, not float comparison — from the golden snapshot of
// the same boundary, so +0/-0 and NaN-payload differences count as
// divergence. State no later stage reads is not compared.
package stitch

import (
	"bytes"
	"math"

	"vsresil/internal/geom"
)

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

// EqualLive reports bit-exact equality of everything the rest of the
// registration pass and the composite read from two states of the same
// pair boundary, given each run's per-frame features: the frame count
// and position, the segment, the reference frame and its transform,
// the failure streak, every registration, the pair in progress
// (correspondences, gates, model and search state) and the features of
// the reference frame and of every frame not yet registered. The frame
// reports and the discard count reach only the Result's Reports and
// Discarded, never its encoded panoramas, and the features of
// registered frames other than the reference are never read again, so
// none of them is compared.
func (a *AlignState) EqualLive(b *AlignState, fa, fb []FrameFeatures) bool {
	if a.N != b.N || a.Next != b.Next || a.segment != b.segment ||
		a.refFrame != b.refFrame || a.failStreak != b.failStreak ||
		!a.refToSegment.EqualBits(b.refToSegment) || !a.EqualRegs(b) || !a.pairEqual(b) ||
		len(fa) != len(fb) {
		return false
	}
	if a.refFrame < len(fa) && !fa[a.refFrame].EqualBits(&fb[a.refFrame]) {
		return false
	}
	for i := max(a.Next, 0); i < len(fa); i++ {
		if !fa[i].EqualBits(&fb[i]) {
			return false
		}
	}
	return true
}

// EqualRegs reports bit-exact equality of the two states'
// registrations — all the composite reads of the registration pass.
func (a *AlignState) EqualRegs(b *AlignState) bool {
	if len(a.regs) != len(b.regs) {
		return false
	}
	for i := range a.regs {
		ra, rb := &a.regs[i], &b.regs[i]
		if ra.frame != rb.frame || ra.segment != rb.segment || !ra.h.EqualBits(rb.h) {
			return false
		}
	}
	return true
}

// pairEqual compares the pairs in progress: the search state and, when
// the two runs did not share them, the correspondences and gates.
func (a *AlignState) pairEqual(b *AlignState) bool {
	p, q := a.pair, b.pair
	if p == nil || q == nil {
		return p == q
	}
	if a.model != b.model || !a.search.EqualBits(&b.search) {
		return false
	}
	return p == q || (p.gateH == q.gateH && p.gateA == q.gateA &&
		ptsEqualBits(p.src, q.src) && ptsEqualBits(p.dst, q.dst))
}

func ptsEqualBits(a, b []geom.Pt) bool {
	return len(a) == len(b) && ptsHavePrefix(a, b)
}

// ptsHavePrefix reports whether a starts with b, bit for bit. Shared
// storage short-circuits the scan.
func ptsHavePrefix(a, b []geom.Pt) bool {
	if len(a) < len(b) {
		return false
	}
	if len(b) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range b {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
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
