// Package ransac implements RANdom SAmple Consensus (Fischler &
// Bolles) for estimating the homography — or, as the paper's fallback,
// the affine transform — between two matched key-point sets (§III-A).
//
// The sampling is driven by a deterministic seeded RNG so that the
// whole pipeline is replayable, which the fault-injection campaign
// requires (a golden run and a faulty run must differ only by the
// injected bit).
package ransac

import (
	"errors"
	"fmt"
	"math"

	"vsresil/internal/fault"
	"vsresil/internal/geom"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// Model selects what RANSAC estimates.
type Model uint8

// Estimated model kinds.
const (
	// ModelHomography fits a full 8-DOF projective transform from
	// 4-point samples.
	ModelHomography Model = iota
	// ModelAffine fits a 6-DOF affine transform from 3-point samples —
	// the paper's fallback when too few matches exist for a
	// homography.
	ModelAffine
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelHomography:
		return "homography"
	case ModelAffine:
		return "affine"
	default:
		return "unknown"
	}
}

// minSamples returns the minimal correspondence count for the model.
func (m Model) minSamples() int {
	if m == ModelAffine {
		return 3
	}
	return 4
}

// Config parameterizes the estimator.
type Config struct {
	Model Model
	// Iterations is the number of random samples drawn (default 500).
	Iterations int
	// InlierThreshold is the max reprojection error in pixels for a
	// correspondence to count as an inlier (default 3).
	InlierThreshold float64
	// MinInliers is the minimum consensus size for a model to be
	// accepted (default minSamples+4).
	MinInliers int
	// Seed drives the deterministic sampler.
	Seed uint64
	// Refit re-estimates the model from the full inlier set of the
	// best sample (default behavior unless DisableRefit).
	DisableRefit bool
}

// DefaultConfig returns the pipeline defaults for the given model.
func DefaultConfig(model Model) Config {
	return Config{
		Model:           model,
		Iterations:      500,
		InlierThreshold: 3,
		MinInliers:      model.minSamples() + 4,
	}
}

// Result is an accepted model with its consensus set.
type Result struct {
	// H is the estimated transform (for ModelAffine it is the lifted
	// affine).
	H geom.Homography
	// Inliers indexes the correspondences within the threshold.
	Inliers []int
	// Error is the mean reprojection error over the inliers.
	Error float64
}

// ErrNoConsensus is returned when no sampled model reaches MinInliers
// — the pipeline reacts by falling back to affine or discarding the
// frame, exactly like the paper's algorithm.
var ErrNoConsensus = errors.New("ransac: no model reached the inlier threshold")

// Search is the sampling loop's state between iterations: the
// configuration with its defaults applied, the tapped correspondence
// and iteration counts, the next iteration, the sampler's RNG state
// and the best model so far. It is a value type deliberately: a golden
// checkpoint keeps a copy, and a trial resumed from it continues the
// search from a plain copy. It holds no correspondences; every call
// takes the same src and dst that Begin got.
//
// A search may also carry the golden run's Record of itself: one it
// fills (Capture) or one it replays (Replay). The record is not part of
// the state EqualBits compares.
type Search struct {
	cfg       Config
	k         int
	n, iters  int
	it        int
	rng       stats.RNG
	bestCount int
	bestH     geom.Homography
	rec       *Record
	capture   bool
}

// Record is one search as the golden run computed it: the
// configuration and tapped counts it ran on, and the consensus count of
// every sampling iteration, failedFit for an iteration whose sample fit
// failed (which issues no taps). A trial replaying it under a
// *fault.Machine still draws every sample, so its sampler stays in step
// with the golden run's, but takes the recorded count for every fitted
// iteration that cannot reach the armed site and fits the sample only
// when that count beats its own best. A Record is immutable once its
// capture has finished and safe to share across trials.
type Record struct {
	cfg    Config
	n, k   int
	counts []uint16
}

// failedFit is a Record's count for an iteration whose sample fit
// failed. No real count reaches it: Capture makes no record for
// failedFit or more correspondences.
const failedFit = 0xFFFF

// Capture makes the search fill a new Record as it steps, from the
// first iteration on, and returns it. It returns nil, leaving the search
// unchanged, when the tapped correspondence count does not fit a
// uint16 count. Snapshot states stop filling.
func (sr *Search) Capture() *Record {
	if sr.n >= failedFit || sr.it != 0 {
		return nil
	}
	sr.rec = &Record{cfg: sr.cfg, n: sr.n, k: sr.k, counts: make([]uint16, 0, min(max(sr.iters, 0), failedFit))}
	sr.capture = true
	return sr.rec
}

// Replay attaches rec for a *fault.Machine sink to replay when rec was
// captured on the search's configuration and tapped counts, and reports
// whether it did. The caller guarantees that the correspondences rec's
// search read are bit-identical to the first n of this search's.
func (sr *Search) Replay(rec *Record) bool {
	if rec == nil || !sameConfig(rec.cfg, sr.cfg) || rec.n != sr.n || rec.k != sr.k {
		return false
	}
	sr.rec, sr.capture = rec, false
	return true
}

// Snapshot returns a copy of the search to retain while the receiver
// keeps advancing: a capturing search's copy replays the record
// instead of filling it.
func (sr Search) Snapshot() Search {
	sr.capture = false
	return sr
}

// Iteration returns the index of the next sampling iteration.
func (sr *Search) Iteration() int { return sr.it }

// Iterations returns the (tapped, hence possibly fault-corrupted)
// number of sampling iterations the search runs.
func (sr *Search) Iterations() int { return sr.iters }

// EqualBits reports bit-exact equality of two search states. A
// carried Record is not compared.
func (sr *Search) EqualBits(o *Search) bool {
	return sameConfig(sr.cfg, o.cfg) && sr.k == o.k &&
		sr.n == o.n && sr.iters == o.iters && sr.it == o.it && sr.rng == o.rng &&
		sr.bestCount == o.bestCount && sr.bestH.EqualBits(o.bestH)
}

// sameConfig reports bit-exact equality of two configurations.
func sameConfig(a, b Config) bool {
	return a.Model == b.Model && a.Iterations == b.Iterations &&
		math.Float64bits(a.InlierThreshold) == math.Float64bits(b.InlierThreshold) &&
		a.MinInliers == b.MinInliers && a.Seed == b.Seed && a.DisableRefit == b.DisableRefit
}

// Begin starts a search: it applies the configuration's defaults and
// taps the correspondence and iteration counts. It returns
// ErrNoConsensus when too few correspondences exist for the model.
func Begin(src, dst []geom.Pt, cfg Config, s probe.Sink) (Search, error) {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return begin(src, dst, cfg, probe.Nop{})
	}
	return begin(src, dst, cfg, s)
}

func begin[S probe.Sink](src, dst []geom.Pt, cfg Config, m S) (Search, error) {
	defer m.Enter(probe.RRANSAC)()
	if len(src) != len(dst) {
		return Search{}, fmt.Errorf("ransac: correspondence count mismatch %d vs %d", len(src), len(dst))
	}
	k := cfg.Model.minSamples()
	if cfg.Iterations <= 0 {
		cfg.Iterations = 500
	}
	if cfg.InlierThreshold <= 0 {
		cfg.InlierThreshold = 3
	}
	if cfg.MinInliers < k {
		cfg.MinInliers = k + 4
	}
	n := m.Cnt(len(src))
	if n < k || n < cfg.MinInliers {
		return Search{}, ErrNoConsensus
	}
	return Search{cfg: cfg, k: k, n: n, iters: m.Cnt(cfg.Iterations), rng: *stats.NewRNG(cfg.Seed)}, nil
}

// Step runs the sampling iterations before until (or before the
// search's last, whichever comes first).
func (sr *Search) Step(src, dst []geom.Pt, until int, s probe.Sink) {
	if s = probe.OrNop(s); probe.IsNop(s) {
		step(sr, src, dst, until, probe.Nop{})
	} else {
		step(sr, src, dst, until, s)
	}
}

// step is the one sampling loop. A capturing search appends every
// iteration's count to its record. A replaying search on a
// *fault.Machine sink (itself, not a wrapper) takes the record for every
// iteration it holds: a failed fit is skipped outright (it issues no
// taps), Machine.InertUnits says how many of the next fitted iterations
// cannot reach the armed site, and those take the recorded count —
// fitting the sample only when the count beats the best so far — and
// are accounted with their exact footprint (advanceIters). The next
// fitted iteration, and every one past the record's end, runs
// instrumented.
func step[S probe.Sink](sr *Search, src, dst []geom.Pt, until int, m S) {
	defer m.Enter(probe.RRANSAC)()
	n, k := sr.n, sr.k
	rng := &sr.rng
	thresh2 := sr.cfg.InlierThreshold * sr.cfg.InlierThreshold
	var sample [4]int
	var golden []uint16
	fm, _ := any(m).(*fault.Machine)
	if fm != nil && sr.rec != nil && !sr.capture {
		golden = sr.rec.counts
	}
	// inert is how many more fitted iterations InertUnits admitted, and
	// taken how many of those took the record not yet accounted.
	inert, taken := 0, uint64(0)
	end := min(until, sr.iters)
	for ; sr.it < end; sr.it++ {
		if !drawSample(rng, n, k, &sample) {
			continue
		}
		if sr.it < len(golden) {
			c := int(golden[sr.it])
			if c == failedFit {
				continue
			}
			if inert == 0 {
				advanceIters(fm, n, taken)
				taken = 0
				inert = fm.InertUnits(iterSpan(uint64(n)), end-sr.it)
			}
			if inert > 0 {
				inert--
				taken++
				if c > sr.bestCount {
					sr.bestCount = c
					sr.bestH, _ = fitSample(src, dst, sample[:k], sr.cfg.Model)
				}
				continue
			}
		}
		advanceIters(fm, n, taken)
		taken = 0
		h, ok := fitSample(src, dst, sample[:k], sr.cfg.Model)
		if !ok {
			if sr.capture {
				sr.rec.counts = append(sr.rec.counts, failedFit)
			}
			continue
		}
		count := 0
		m.Ops(probe.OpFloat, uint64(n*8))
		m.Ops(probe.OpBranch, uint64(n))
		for i := 0; i < n; i++ {
			p := h.Apply(src[m.Idx(i)])
			if p.Dist2(dst[i]) <= thresh2 {
				count++
			}
		}
		if sr.capture {
			sr.rec.counts = append(sr.rec.counts, uint16(count))
		}
		if count > sr.bestCount {
			sr.bestCount = count
			sr.bestH = h
		}
	}
	advanceIters(fm, n, taken)
}

// iterSpan is the tap footprint of fitted sampling iterations issuing n
// taps in all: one Idx per correspondence, in RRANSAC. One fitted
// iteration over n correspondences is iterSpan(n); a failed fit issues
// none.
func iterSpan(n uint64) fault.TapCounters {
	var tc fault.TapCounters
	tc.RegionGPR[probe.RRANSAC] = n
	tc.GPR = tc.RegionGPR[probe.RRANSAC]
	tc.Steps = tc.GPR
	return tc
}

// advanceIters accounts iters fitted iterations over n correspondences
// that took a record's counts: iterSpan's taps plus the op counts of
// the instrumented body (one OpInt per tap, eight OpFloat and one
// OpBranch per correspondence).
func advanceIters(m *fault.Machine, n int, iters uint64) {
	if iters == 0 {
		return
	}
	taps := uint64(n) * iters
	m.AdvanceTaps(iterSpan(taps))
	m.OpsIn(probe.RRANSAC, probe.OpInt, taps)
	m.OpsIn(probe.RRANSAC, probe.OpFloat, 8*taps)
	m.OpsIn(probe.RRANSAC, probe.OpBranch, taps)
}

// Finish ends the search: it collects the best model's consensus set,
// refits on it and returns the accepted model, or ErrNoConsensus when
// no sampled model reached MinInliers.
func (sr *Search) Finish(src, dst []geom.Pt, s probe.Sink) (*Result, error) {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return finish(sr, src, dst, probe.Nop{})
	}
	return finish(sr, src, dst, s)
}

func finish[S probe.Sink](sr *Search, src, dst []geom.Pt, m S) (*Result, error) {
	defer m.Enter(probe.RRANSAC)()
	cfg, k, n := sr.cfg, sr.k, sr.n
	if sr.bestCount < cfg.MinInliers {
		return nil, ErrNoConsensus
	}
	thresh2 := cfg.InlierThreshold * cfg.InlierThreshold

	// Collect the consensus set of the best model.
	inliers := collectInliers(sr.bestH, src, dst, thresh2, n, m)

	// Refit on all inliers for accuracy, keeping the sample model if
	// the refit degenerates or loses consensus.
	h := sr.bestH
	if !cfg.DisableRefit && len(inliers) > k {
		if refit, ok := fitIndices(src, dst, inliers, cfg.Model); ok {
			refitInliers := collectInliers(refit, src, dst, thresh2, n, m)
			if len(refitInliers) >= len(inliers) {
				h = refit
				inliers = refitInliers
			}
		}
	}

	var errSum float64
	for _, i := range inliers {
		errSum += h.Apply(src[i]).Dist(dst[i])
	}
	meanErr := m.F64(errSum / float64(len(inliers)))
	return &Result{H: h, Inliers: inliers, Error: meanErr}, nil
}

// drawSample fills sample[:k] with k distinct indices in [0, n).
func drawSample(rng *stats.RNG, n, k int, sample *[4]int) bool {
	if n < k {
		return false
	}
	for i := 0; i < k; i++ {
	retry:
		v := rng.Intn(n)
		for j := 0; j < i; j++ {
			if sample[j] == v {
				goto retry
			}
		}
		sample[i] = v
	}
	return true
}

// fitSample fits the model to the sampled correspondences, rejecting
// degenerate (collinear) samples.
func fitSample(src, dst []geom.Pt, idx []int, model Model) (geom.Homography, bool) {
	// Degeneracy check: any three sampled source points collinear.
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			for c := b + 1; c < len(idx); c++ {
				if geom.Collinear(src[idx[a]], src[idx[b]], src[idx[c]]) {
					return geom.Homography{}, false
				}
			}
		}
	}
	return fitIndices(src, dst, idx, model)
}

// fitIndices fits the model to the given correspondence indices.
func fitIndices(src, dst []geom.Pt, idx []int, model Model) (geom.Homography, bool) {
	// The sampling loop calls this with 3- or 4-point samples hundreds
	// of times per search; stack buffers cover those (and the small
	// refits) so only large refits allocate.
	var sbuf, dbuf [8]geom.Pt
	var s, d []geom.Pt
	if len(idx) <= len(sbuf) {
		s, d = sbuf[:len(idx)], dbuf[:len(idx)]
	} else {
		s = make([]geom.Pt, len(idx))
		d = make([]geom.Pt, len(idx))
	}
	for i, j := range idx {
		s[i] = src[j]
		d[i] = dst[j]
	}
	if model == ModelAffine {
		a, err := geom.EstimateAffine(s, d)
		if err != nil {
			return geom.Homography{}, false
		}
		return a.Homography(), true
	}
	h, err := geom.EstimateHomography(s, d)
	if err != nil {
		return geom.Homography{}, false
	}
	return h, true
}

// collectInliers returns the indices whose reprojection error is
// within the squared threshold.
func collectInliers[S probe.Sink](h geom.Homography, src, dst []geom.Pt, thresh2 float64, n int, m S) []int {
	inliers := make([]int, 0, n)
	for i := 0; i < n; i++ {
		p := h.Apply(src[i])
		d2 := m.F64(p.Dist2(dst[i]))
		if d2 <= thresh2 {
			inliers = append(inliers, i)
		}
	}
	return inliers
}
