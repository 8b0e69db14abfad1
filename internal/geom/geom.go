// Package geom provides the 2-D geometry substrate for the video
// summarization pipeline: points, 3x3 projective transforms
// (homographies), 2x3 affine transforms, and the dense linear solvers
// needed to estimate them from point correspondences.
//
// All matrices are small and fixed-size; operations are allocation-free
// where possible so that the RANSAC inner loop stays cheap.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Pt is a 2-D point in image coordinates (x to the right, y down).
type Pt struct {
	X, Y float64
}

// Add returns p + q.
func (p Pt) Add(q Pt) Pt { return Pt{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Pt) Sub(q Pt) Pt { return Pt{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Pt) Scale(s float64) Pt { return Pt{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Pt) Dist(q Pt) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Pt) Dist2(q Pt) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// ErrSingular is returned when a linear system or matrix inversion is
// degenerate (e.g. collinear correspondences in homography estimation).
var ErrSingular = errors.New("geom: singular system")

// Homography is a 3x3 projective transform stored row-major:
//
//	| m[0] m[1] m[2] |
//	| m[3] m[4] m[5] |
//	| m[6] m[7] m[8] |
//
// It maps source points to destination points in homogeneous
// coordinates. The zero value is NOT a valid transform; use Identity.
type Homography [9]float64

// Identity returns the identity homography.
func Identity() Homography {
	return Homography{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// Translation returns a homography that translates by (tx, ty).
func Translation(tx, ty float64) Homography {
	return Homography{1, 0, tx, 0, 1, ty, 0, 0, 1}
}

// Scaling returns a homography that scales by (sx, sy) about the origin.
func Scaling(sx, sy float64) Homography {
	return Homography{sx, 0, 0, 0, sy, 0, 0, 0, 1}
}

// Rotation returns a homography rotating by theta radians about the origin.
func Rotation(theta float64) Homography {
	c, s := math.Cos(theta), math.Sin(theta)
	return Homography{c, -s, 0, s, c, 0, 0, 0, 1}
}

// RotationAbout returns a homography rotating by theta radians about (cx, cy).
func RotationAbout(theta, cx, cy float64) Homography {
	return Translation(cx, cy).Mul(Rotation(theta)).Mul(Translation(-cx, -cy))
}

// Apply maps the point p through h. If the point maps to the plane at
// infinity (w ~ 0) the result is saturated to very large finite
// coordinates rather than Inf, so downstream bounds arithmetic stays
// finite.
func (h Homography) Apply(p Pt) Pt {
	w := h[6]*p.X + h[7]*p.Y + h[8]
	if math.Abs(w) < 1e-12 {
		w = math.Copysign(1e-12, w)
		if w == 0 {
			w = 1e-12
		}
	}
	return Pt{
		X: (h[0]*p.X + h[1]*p.Y + h[2]) / w,
		Y: (h[3]*p.X + h[4]*p.Y + h[5]) / w,
	}
}

// Mul returns the composition h∘g, i.e. the transform that first
// applies g and then h.
func (h Homography) Mul(g Homography) Homography {
	var r Homography
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += h[3*i+k] * g[3*k+j]
			}
			r[3*i+j] = s
		}
	}
	return r
}

// Det returns the determinant of h.
func (h Homography) Det() float64 {
	return h[0]*(h[4]*h[8]-h[5]*h[7]) -
		h[1]*(h[3]*h[8]-h[5]*h[6]) +
		h[2]*(h[3]*h[7]-h[4]*h[6])
}

// Inverse returns the inverse transform. It returns ErrSingular when
// the determinant is (numerically) zero.
func (h Homography) Inverse() (Homography, error) {
	d := h.Det()
	if math.Abs(d) < 1e-14 {
		return Homography{}, ErrSingular
	}
	inv := 1 / d
	var r Homography
	r[0] = (h[4]*h[8] - h[5]*h[7]) * inv
	r[1] = (h[2]*h[7] - h[1]*h[8]) * inv
	r[2] = (h[1]*h[5] - h[2]*h[4]) * inv
	r[3] = (h[5]*h[6] - h[3]*h[8]) * inv
	r[4] = (h[0]*h[8] - h[2]*h[6]) * inv
	r[5] = (h[2]*h[3] - h[0]*h[5]) * inv
	r[6] = (h[3]*h[7] - h[4]*h[6]) * inv
	r[7] = (h[1]*h[6] - h[0]*h[7]) * inv
	r[8] = (h[0]*h[4] - h[1]*h[3]) * inv
	return r, nil
}

// Normalize scales h so that h[8] == 1 when possible. Homographies are
// equivalence classes under scaling; normalizing makes comparisons and
// conditioning checks meaningful.
func (h Homography) Normalize() Homography {
	if math.Abs(h[8]) < 1e-14 {
		return h
	}
	inv := 1 / h[8]
	var r Homography
	for i := range h {
		r[i] = h[i] * inv
	}
	return r
}

// IsFinite reports whether all entries of h are finite numbers.
func (h Homography) IsFinite() bool {
	for _, v := range h {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Reasonable reports whether h looks like a physically plausible frame
// transform for aerial video: finite, invertible, with bounded
// perspective terms and a scale factor within [minScale, maxScale].
// The stitching pipeline uses this to discard wildly wrong estimates
// (the paper's algorithm similarly discards frames whose transform
// cannot be computed reliably).
func (h Homography) Reasonable(minScale, maxScale float64) bool {
	if !h.IsFinite() {
		return false
	}
	n := h.Normalize()
	// Perspective terms of a near-planar aerial scene are tiny.
	if math.Abs(n[6]) > 0.01 || math.Abs(n[7]) > 0.01 {
		return false
	}
	// Scale from the upper-left 2x2 block.
	s := math.Sqrt(math.Abs(n[0]*n[4] - n[1]*n[3]))
	if math.IsNaN(s) || s < minScale || s > maxScale {
		return false
	}
	return true
}

// String implements fmt.Stringer for debugging output.
func (h Homography) String() string {
	return fmt.Sprintf("[%.4g %.4g %.4g; %.4g %.4g %.4g; %.4g %.4g %.4g]",
		h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7], h[8])
}

// Affine is a 2x3 affine transform stored row-major:
//
//	| a[0] a[1] a[2] |
//	| a[3] a[4] a[5] |
//
// mapping (x, y) -> (a0 x + a1 y + a2, a3 x + a4 y + a5).
type Affine [6]float64

// Apply maps p through a.
func (a Affine) Apply(p Pt) Pt {
	return Pt{
		X: a[0]*p.X + a[1]*p.Y + a[2],
		Y: a[3]*p.X + a[4]*p.Y + a[5],
	}
}

// Homography lifts the affine transform to a full projective transform.
func (a Affine) Homography() Homography {
	return Homography{a[0], a[1], a[2], a[3], a[4], a[5], 0, 0, 1}
}

// IsFinite reports whether all entries of a are finite.
func (a Affine) IsFinite() bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
