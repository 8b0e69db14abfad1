package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts occurrences in a fixed number of integer-labelled
// bins (e.g. injections per register id, Fig 9b).
type Histogram struct {
	Counts []int
}

// NewHistogram returns a histogram with n bins.
func NewHistogram(n int) *Histogram {
	return &Histogram{Counts: make([]int, n)}
}

// Add increments bin i; out-of-range values are ignored (they
// correspond to events outside the tracked domain).
func (h *Histogram) Add(i int) {
	if i >= 0 && i < len(h.Counts) {
		h.Counts[i]++
	}
}

// Total returns the number of recorded events.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// ChiSquareUniform returns the chi-square statistic of the histogram
// against a uniform distribution. The Fig 9b uniformity check uses
// this: for k bins and n samples the statistic should be around k-1.
func (h *Histogram) ChiSquareUniform() float64 {
	n := h.Total()
	k := len(h.Counts)
	if n == 0 || k == 0 {
		return 0
	}
	expected := float64(n) / float64(k)
	var chi2 float64
	for _, c := range h.Counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// String renders the histogram as "bin:count" pairs for reports.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, c := range h.Counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", i, c)
	}
	return b.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RateCurve tracks how category rates evolve as more samples arrive —
// the Fig 9a "outcome rate vs number of injections" trend curves.
type RateCurve struct {
	categories int
	counts     []int
	total      int
	// Snapshots holds the rate vector after each checkpoint.
	Checkpoints []int
	Snapshots   [][]float64
	every       int
}

// NewRateCurve tracks `categories` outcome classes, snapshotting the
// rates every `every` samples.
func NewRateCurve(categories, every int) *RateCurve {
	if every < 1 {
		every = 1
	}
	return &RateCurve{
		categories: categories,
		counts:     make([]int, categories),
		every:      every,
	}
}

// Add records one sample of the given category.
func (rc *RateCurve) Add(category int) {
	if category >= 0 && category < rc.categories {
		rc.counts[category]++
	}
	rc.total++
	if rc.total%rc.every == 0 {
		rc.snapshot()
	}
}

func (rc *RateCurve) snapshot() {
	rates := make([]float64, rc.categories)
	for i, c := range rc.counts {
		rates[i] = float64(c) / float64(rc.total)
	}
	rc.Checkpoints = append(rc.Checkpoints, rc.total)
	rc.Snapshots = append(rc.Snapshots, rates)
}

// Final returns the rate vector over all samples seen so far.
func (rc *RateCurve) Final() []float64 {
	rates := make([]float64, rc.categories)
	if rc.total == 0 {
		return rates
	}
	for i, c := range rc.counts {
		rates[i] = float64(c) / float64(rc.total)
	}
	return rates
}

// Total returns the number of samples recorded.
func (rc *RateCurve) Total() int { return rc.total }

// Knee estimates the sample count after which every category's rate
// stays within tol (absolute) of its final value — the paper's "knee
// of the trend curves" used to size the campaign (§V-A: ~1000
// injections). It returns the first checkpoint from which all later
// snapshots are stable, or 0 if there are no snapshots.
func (rc *RateCurve) Knee(tol float64) int {
	if len(rc.Snapshots) == 0 {
		return 0
	}
	final := rc.Final()
	stableFrom := len(rc.Snapshots) - 1
	for i := len(rc.Snapshots) - 1; i >= 0; i-- {
		ok := true
		for c := 0; c < rc.categories; c++ {
			if math.Abs(rc.Snapshots[i][c]-final[c]) > tol {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		stableFrom = i
	}
	return rc.Checkpoints[stableFrom]
}
