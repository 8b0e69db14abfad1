package geom

import "math"

// SolveLinear solves the n x n system A x = b in place using
// Gauss-Jordan elimination with partial pivoting. A is row-major with
// stride n. It returns ErrSingular if a pivot is (numerically) zero.
// Both a and b are clobbered; the solution is returned in b.
func SolveLinear(a []float64, b []float64, n int) error {
	if len(a) != n*n || len(b) != n {
		return ErrSingular
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in
		// this column at or below the diagonal.
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a[col*n+j], a[pivot*n+j] = a[pivot*n+j], a[col*n+j]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		// Normalize pivot row.
		inv := 1 / a[col*n+col]
		for j := col; j < n; j++ {
			a[col*n+j] *= inv
		}
		b[col] *= inv
		// Eliminate this column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col]
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
			}
			b[r] -= f * b[col]
		}
	}
	return nil
}

// solveLinear8 is SolveLinear specialized to the 8x8 system of the
// homography DLT — the RANSAC inner-loop solve. The body is a
// statement-for-statement copy of SolveLinear with n fixed at 8, so
// every floating-point operation executes in the identical order and
// the solution is bit-identical; the constant dimension lets the
// compiler drop the bounds checks the generic solver pays per access.
// Any change to SolveLinear's elimination order must be mirrored here.
func solveLinear8(a *[64]float64, b *[8]float64) error {
	const n = 8
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a[col*n+j], a[pivot*n+j] = a[pivot*n+j], a[col*n+j]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for j := col; j < n; j++ {
			a[col*n+j] *= inv
		}
		b[col] *= inv
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col]
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
			}
			b[r] -= f * b[col]
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor an infinity.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// normalization holds the similarity transform used to condition point
// sets before DLT (Hartley normalization): translate centroid to the
// origin and scale so the mean distance from the origin is sqrt(2).
type normalization struct {
	cx, cy, s float64
}

// normalizePoints writes the conditioned points into out (len(out)
// must equal len(pts)); taking the destination as a parameter lets
// EstimateHomography keep the minimal-sample case allocation-free.
func normalizePoints(pts []Pt, out []Pt) normalization {
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(pts))
	cx /= n
	cy /= n
	var meanDist float64
	for _, p := range pts {
		meanDist += math.Hypot(p.X-cx, p.Y-cy)
	}
	meanDist /= n
	s := math.Sqrt2
	if meanDist > 1e-12 {
		s = math.Sqrt2 / meanDist
	}
	for i, p := range pts {
		out[i] = Pt{(p.X - cx) * s, (p.Y - cy) * s}
	}
	return normalization{cx, cy, s}
}

// matrix returns the homography representing this normalization.
func (nm normalization) matrix() Homography {
	return Homography{nm.s, 0, -nm.s * nm.cx, 0, nm.s, -nm.s * nm.cy, 0, 0, 1}
}

// inverseMatrix returns the homography undoing this normalization.
func (nm normalization) inverseMatrix() Homography {
	inv := 1 / nm.s
	return Homography{inv, 0, nm.cx, 0, inv, nm.cy, 0, 0, 1}
}

// EstimateHomography computes the homography mapping src[i] -> dst[i]
// from at least four correspondences using the normalized Direct
// Linear Transform. With exactly four points it solves the 8x8 system
// exactly; with more it solves the least-squares normal equations.
// It returns ErrSingular for degenerate configurations (e.g. three or
// more collinear points).
func EstimateHomography(src, dst []Pt) (Homography, error) {
	if len(src) < 4 || len(src) != len(dst) {
		return Homography{}, ErrSingular
	}
	// RANSAC calls this with 4-point samples hundreds of times per
	// frame pair; stack buffers keep that hot case allocation-free.
	var sbuf, dbuf [8]Pt
	srcN, dstN := sbuf[:], dbuf[:]
	if len(src) <= len(sbuf) {
		srcN, dstN = sbuf[:len(src)], dbuf[:len(dst)]
	} else {
		srcN = make([]Pt, len(src))
		dstN = make([]Pt, len(dst))
	}
	nsrc := normalizePoints(src, srcN)
	ndst := normalizePoints(dst, dstN)

	// Build the least-squares normal equations A^T A h = A^T b for the
	// 8 unknowns (h8 fixed to 1). Each correspondence contributes two
	// rows:
	//   [x y 1 0 0 0 -x*X -y*X] h = X
	//   [0 0 0 x y 1 -x*Y -y*Y] h = Y
	var ata [64]float64
	var atb [8]float64
	var row [8]float64

	// A^T A is symmetric, and when every row entry is finite the two
	// mirrored accumulations are bit-identical, so computing only the
	// upper triangle and mirroring halves the dominant cost of this
	// function (the RANSAC inner loop). The argument: entry (i,j)
	// sums row[i]*row[j] over calls with row[i] != 0 while (j,i) sums
	// the same (commutative) products over calls with row[j] != 0 —
	// the sets differ only in zero-valued factors, whose +-0 products
	// cannot move an accumulator that starts at +0 (+0 + -0 == +0).
	// A NaN or Inf entry breaks that (Inf*0 is NaN on one side of the
	// diagonal and a skip on the other), so non-finite rows — which
	// only corrupted trials produce — take the full reference
	// accumulation.
	symmetric := true
	for k := range srcN {
		x, y := srcN[k].X, srcN[k].Y
		X, Y := dstN[k].X, dstN[k].Y
		if !finite(x) || !finite(y) || !finite(X) || !finite(Y) ||
			!finite(x*X) || !finite(y*X) || !finite(x*Y) || !finite(y*Y) {
			symmetric = false
			break
		}
	}
	jLo := func(i int) int {
		if symmetric {
			return i
		}
		return 0
	}
	accumulate := func(rhs float64) {
		for i := 0; i < 8; i++ {
			if row[i] == 0 {
				continue
			}
			for j := jLo(i); j < 8; j++ {
				ata[i*8+j] += row[i] * row[j]
			}
			atb[i] += row[i] * rhs
		}
	}
	for k := range srcN {
		x, y := srcN[k].X, srcN[k].Y
		X, Y := dstN[k].X, dstN[k].Y
		row = [8]float64{x, y, 1, 0, 0, 0, -x * X, -y * X}
		accumulate(X)
		row = [8]float64{0, 0, 0, x, y, 1, -x * Y, -y * Y}
		accumulate(Y)
	}
	if symmetric {
		for i := 1; i < 8; i++ {
			for j := 0; j < i; j++ {
				ata[i*8+j] = ata[j*8+i]
			}
		}
	}
	sol := atb
	if err := solveLinear8(&ata, &sol); err != nil {
		return Homography{}, err
	}
	hn := Homography{sol[0], sol[1], sol[2], sol[3], sol[4], sol[5], sol[6], sol[7], 1}
	// Denormalize: H = Tdst^-1 * Hn * Tsrc.
	h := ndst.inverseMatrix().Mul(hn).Mul(nsrc.matrix())
	h = h.Normalize()
	if !h.IsFinite() {
		return Homography{}, ErrSingular
	}
	return h, nil
}

// EstimateAffine computes the affine transform mapping src[i] -> dst[i]
// from at least three correspondences, by least squares for more than
// three. It returns ErrSingular for collinear configurations.
func EstimateAffine(src, dst []Pt) (Affine, error) {
	if len(src) < 3 || len(src) != len(dst) {
		return Affine{}, ErrSingular
	}
	// Two independent 3-unknown least-squares problems (for the x and
	// y output rows) sharing the same 3x3 normal matrix.
	var ata [9]float64
	var atbx, atby [3]float64
	for k := range src {
		r := [3]float64{src[k].X, src[k].Y, 1}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				ata[i*3+j] += r[i] * r[j]
			}
			atbx[i] += r[i] * dst[k].X
			atby[i] += r[i] * dst[k].Y
		}
	}
	ataCopy := ata
	solX := atbx
	if err := SolveLinear(ataCopy[:], solX[:], 3); err != nil {
		return Affine{}, err
	}
	ataCopy = ata
	solY := atby
	if err := SolveLinear(ataCopy[:], solY[:], 3); err != nil {
		return Affine{}, err
	}
	a := Affine{solX[0], solX[1], solX[2], solY[0], solY[1], solY[2]}
	if !a.IsFinite() {
		return Affine{}, ErrSingular
	}
	return a, nil
}

// Collinear reports whether the three points are (nearly) collinear,
// using twice the triangle area against a tolerance scaled by the
// points' extent.
func Collinear(a, b, c Pt) bool {
	area2 := math.Abs((b.X-a.X)*(c.Y-a.Y) - (c.X-a.X)*(b.Y-a.Y))
	// Conservative early outs before paying for three math.Hypot
	// calls (RANSAC runs this on every 4-point sample): each pairwise
	// distance satisfies mc <= hypot <= sqrt2*mc where mc is the max
	// absolute coordinate delta, so with mm = max mc over the pairs,
	// scale^2 lies in [max(1, mm^2), max(1, 2*mm^2)]. area2 at or
	// above the upper threshold can never be collinear; area2 below
	// the lower threshold always is. NaN/Inf inputs fail both
	// comparisons (or match the exact path's verdict, when mm and the
	// true scale overflow together) and fall through.
	m1 := math.Max(math.Abs(b.X-a.X), math.Abs(b.Y-a.Y))
	m2 := math.Max(math.Abs(c.X-b.X), math.Abs(c.Y-b.Y))
	m3 := math.Max(math.Abs(c.X-a.X), math.Abs(c.Y-a.Y))
	mm := math.Max(m1, math.Max(m2, m3))
	if area2 >= 1e-6*math.Max(1, 2*mm*mm) {
		return false
	}
	if area2 < 1e-6*math.Max(1, mm*mm) {
		return true
	}
	scale := math.Max(1, math.Max(a.Dist(b), math.Max(b.Dist(c), a.Dist(c))))
	return area2 < 1e-6*scale*scale
}
