// Package imgproc provides the image-processing substrate for the
// video summarization pipeline: 8-bit grayscale images, float64
// matrices, saturating conversions between them, smoothing filters and
// geometric resampling helpers.
//
// The package deliberately mirrors the structure the paper attributes
// to its OpenCV-based workload: pixels are stored as 8-bit integers,
// and floating point enters only transiently (filter accumulation,
// coordinate algebra) before being saturate-cast back to uint8. That
// saturation step is the mechanism behind the paper's observation that
// >99% of floating-point register faults are masked (§VI-A).
package imgproc

import (
	"errors"
	"fmt"
	"math"
)

// Gray is an 8-bit single channel image. Pix holds rows top-to-bottom,
// each row W bytes, with stride exactly W (no padding).
type Gray struct {
	W, H int
	Pix  []uint8
}

// NewGray returns a zeroed (black) WxH image. It panics if either
// dimension is negative, matching the behavior of a failed allocation
// in the original application (the fault monitor classifies recovered
// panics as crashes).
func NewGray(w, h int) *Gray {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Out-of-range access panics (this is
// the analogue of a segmentation fault in the paper's crash taxonomy).
func (g *Gray) At(x, y int) uint8 {
	if uint(x) >= uint(g.W) || uint(y) >= uint(g.H) {
		panic(fmt.Sprintf("imgproc: pixel access (%d,%d) outside %dx%d", x, y, g.W, g.H))
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y). Out-of-range access panics.
func (g *Gray) Set(x, y int, v uint8) {
	if uint(x) >= uint(g.W) || uint(y) >= uint(g.H) {
		panic(fmt.Sprintf("imgproc: pixel write (%d,%d) outside %dx%d", x, y, g.W, g.H))
	}
	g.Pix[y*g.W+x] = v
}

// AtClamped returns the pixel at (x, y) with coordinates clamped to
// the image border (border replication, as used by filters).
func (g *Gray) AtClamped(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// InBounds reports whether (x, y) is a valid pixel coordinate.
func (g *Gray) InBounds(x, y int) bool {
	return uint(x) < uint(g.W) && uint(y) < uint(g.H)
}

// Clone returns a deep copy of g.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Equal reports whether two images have identical dimensions and
// pixels. This is the AFI result-checking predicate: any difference at
// all classifies an outcome as an SDC.
func (g *Gray) Equal(o *Gray) bool {
	if o == nil || g.W != o.W || g.H != o.H {
		return false
	}
	for i, v := range g.Pix {
		if o.Pix[i] != v {
			return false
		}
	}
	return true
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v uint8) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Mean returns the average pixel intensity; 0 for empty images.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range g.Pix {
		sum += uint64(v)
	}
	return float64(sum) / float64(len(g.Pix))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SaturateUint8 converts a float to a uint8 with saturation, matching
// OpenCV's saturate_cast<uchar>: NaN maps to 0, values below 0 clamp
// to 0, values above 255 clamp to 255, everything else rounds to
// nearest. This clamp is the FPR-fault masking mechanism the paper
// describes.
func SaturateUint8(v float64) uint8 {
	if math.IsNaN(v) {
		return 0
	}
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Mat is a float64 matrix used for transient filter and transform
// computation. Rows are stored contiguously with stride W.
type Mat struct {
	W, H int
	Data []float64
}

// NewMat returns a zeroed WxH matrix.
func NewMat(w, h int) *Mat {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: invalid mat size %dx%d", w, h))
	}
	return &Mat{W: w, H: h, Data: make([]float64, w*h)}
}

// At returns the element at (x, y); out of range panics.
func (m *Mat) At(x, y int) float64 {
	if uint(x) >= uint(m.W) || uint(y) >= uint(m.H) {
		panic(fmt.Sprintf("imgproc: mat access (%d,%d) outside %dx%d", x, y, m.W, m.H))
	}
	return m.Data[y*m.W+x]
}

// Set writes the element at (x, y); out of range panics.
func (m *Mat) Set(x, y int, v float64) {
	if uint(x) >= uint(m.W) || uint(y) >= uint(m.H) {
		panic(fmt.Sprintf("imgproc: mat write (%d,%d) outside %dx%d", x, y, m.W, m.H))
	}
	m.Data[y*m.W+x] = v
}

// ErrEmptyImage is returned by operations that require a non-empty image.
var ErrEmptyImage = errors.New("imgproc: empty image")
