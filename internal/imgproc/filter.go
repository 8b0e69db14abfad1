package imgproc

import "math"

// GaussianKernel returns a normalized 1-D Gaussian kernel with the
// given radius (kernel length 2*radius+1) and standard deviation
// sigma. sigma <= 0 derives sigma from the radius the way OpenCV does
// for getGaussianKernel.
func GaussianKernel(radius int, sigma float64) []float64 {
	if radius < 0 {
		radius = 0
	}
	if sigma <= 0 {
		sigma = 0.3*(float64(radius)-1) + 0.8
	}
	k := make([]float64, 2*radius+1)
	var sum float64
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// GaussianBlur smooths g with a separable Gaussian of the given radius
// and sigma. The intermediate accumulation is floating point and the
// result is saturate-cast back to uint8 (the paper's FPR masking
// funnel).
func GaussianBlur(g *Gray, radius int, sigma float64) *Gray {
	if g.W == 0 || g.H == 0 {
		return g.Clone()
	}
	k := GaussianKernel(radius, sigma)
	tmp := NewMat(g.W, g.H)
	// Horizontal pass.
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var acc float64
			for i, kv := range k {
				acc += kv * float64(g.AtClamped(x+i-radius, y))
			}
			tmp.Data[y*g.W+x] = acc
		}
	}
	// Vertical pass.
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var acc float64
			for i, kv := range k {
				yy := clampInt(y+i-radius, 0, g.H-1)
				acc += kv * tmp.Data[yy*g.W+x]
			}
			out.Pix[y*g.W+x] = SaturateUint8(acc)
		}
	}
	return out
}

// SampleBilinear samples g at the (possibly fractional) coordinate
// (x, y) with bilinear interpolation. Samples outside the image return
// (0, false). This is the access pattern of OpenCV's remapBilinear,
// the inner loop of the paper's hot function.
func SampleBilinear(g *Gray, x, y float64) (uint8, bool) {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0, false
	}
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	if x0 < 0 || y0 < 0 || x0 >= g.W-1 || y0 >= g.H-1 {
		// Allow exact sampling on the last row/column.
		if x0 == g.W-1 && y0 <= g.H-1 && y0 >= 0 && x == float64(x0) {
			if y0 == g.H-1 && y == float64(y0) {
				return g.At(x0, y0), true
			}
			if y0 < g.H-1 {
				fy := y - float64(y0)
				v := (1-fy)*float64(g.At(x0, y0)) + fy*float64(g.At(x0, y0+1))
				return SaturateUint8(v), true
			}
		}
		if y0 == g.H-1 && x0 >= 0 && x0 < g.W-1 && y == float64(y0) {
			fx := x - float64(x0)
			v := (1-fx)*float64(g.At(x0, y0)) + fx*float64(g.At(x0+1, y0))
			return SaturateUint8(v), true
		}
		return 0, false
	}
	fx := x - float64(x0)
	fy := y - float64(y0)
	p00 := float64(g.Pix[y0*g.W+x0])
	p10 := float64(g.Pix[y0*g.W+x0+1])
	p01 := float64(g.Pix[(y0+1)*g.W+x0])
	p11 := float64(g.Pix[(y0+1)*g.W+x0+1])
	top := p00 + fx*(p10-p00)
	bot := p01 + fx*(p11-p01)
	return SaturateUint8(top + fy*(bot-top)), true
}

// AbsDiff returns |a - b| per pixel. The images must have identical
// dimensions; if they differ, the result covers the intersection and
// treats missing pixels as maximal difference, which is what the SDC
// quality metric needs when a fault changes the output panorama size.
func AbsDiff(a, b *Gray) *Gray {
	w := a.W
	if b.W < w {
		w = b.W
	}
	h := a.H
	if b.H < h {
		h = b.H
	}
	ow := a.W
	if b.W > ow {
		ow = b.W
	}
	oh := a.H
	if b.H > oh {
		oh = b.H
	}
	out := NewGray(ow, oh)
	out.Fill(255)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			av := int(a.Pix[y*a.W+x])
			bv := int(b.Pix[y*b.W+x])
			d := av - bv
			if d < 0 {
				d = -d
			}
			out.Pix[y*ow+x] = uint8(d)
		}
	}
	return out
}

// Threshold returns a copy of g where pixels < t become 0 and pixels
// >= t are kept. This implements the paper's pixel_128_diff_img step.
func Threshold(g *Gray, t uint8) *Gray {
	out := NewGray(g.W, g.H)
	for i, v := range g.Pix {
		if v >= t {
			out.Pix[i] = v
		}
	}
	return out
}
