// Package match implements brute-force descriptor matching between
// frames (§III-A): for each key point in the current frame it finds
// nearest neighbors among the incoming frame's key points by Hamming
// distance.
//
// Two strategies reproduce the paper's algorithms:
//
//   - RatioTest: the baseline VS matcher. The two nearest neighbors
//     are found and a match is kept only when the nearest is
//     sufficiently closer than the second nearest (Lowe's ratio test),
//     which suppresses false positives.
//   - SimpleNearest: the VS_SM approximation. Only the single nearest
//     neighbor is computed and the match is kept when its absolute
//     distance is below a fixed bound — cheaper, but identical objects
//     can alias (§IV(3)).
//
// The O(n²) scan over key-point pairs is the computation VS_KDS
// attacks by down-sampling key points (package vs).
package match

import (
	"sort"

	"vsresil/internal/fault"
	"vsresil/internal/features"
	"vsresil/internal/probe"
)

// Match pairs a query key point index with its matched train index.
type Match struct {
	Query    int
	Train    int
	Distance int
}

// Strategy selects the matching algorithm.
type Strategy uint8

// Matching strategies.
const (
	// RatioTest keeps matches whose nearest neighbor beats the second
	// nearest by the configured ratio (baseline VS).
	RatioTest Strategy = iota
	// SimpleNearest keeps the single nearest neighbor under an
	// absolute distance bound (VS_SM).
	SimpleNearest
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case RatioTest:
		return "ratio-test"
	case SimpleNearest:
		return "simple-nearest"
	default:
		return "unknown"
	}
}

// Config parameterizes a Matcher.
type Config struct {
	Strategy Strategy
	// Ratio is the RatioTest threshold: keep when d1 < Ratio*d2
	// (default 0.75).
	Ratio float64
	// MaxDistance is the SimpleNearest absolute bound in bits
	// (default 48 of 256).
	MaxDistance int
}

// DefaultConfig returns the baseline VS matcher configuration.
func DefaultConfig() Config {
	return Config{Strategy: RatioTest, Ratio: 0.75, MaxDistance: 48}
}

// SimpleConfig returns the VS_SM matcher configuration.
func SimpleConfig() Config {
	return Config{Strategy: SimpleNearest, MaxDistance: 52}
}

// Matcher matches descriptor sets between frames.
type Matcher struct {
	cfg Config
}

// New returns a Matcher; zero-value fields in cfg fall back to
// defaults.
func New(cfg Config) *Matcher {
	if cfg.Ratio <= 0 || cfg.Ratio >= 1 {
		cfg.Ratio = 0.75
	}
	if cfg.MaxDistance <= 0 {
		cfg.MaxDistance = 48
	}
	return &Matcher{cfg: cfg}
}

// Config returns the matcher's effective configuration.
func (mt *Matcher) Config() Config { return mt.cfg }

// Match finds matches from query descriptors to train descriptors.
// s is any probe.Sink; pass probe.Nop{} for an uninstrumented run
// (nil is normalized).
func (mt *Matcher) Match(query, train []features.Descriptor, s probe.Sink) []Match {
	return mt.AppendMatches(nil, query, train, s)
}

// AppendMatches is Match appending into dst (which may be nil),
// reusing its capacity — callers that match every frame pair of every
// campaign trial pass a recycled buffer to keep the steady state
// allocation-free. It emits exactly Match's tap stream.
func (mt *Matcher) AppendMatches(dst []Match, query, train []features.Descriptor, s probe.Sink) []Match {
	if s = probe.OrNop(s); probe.IsNop(s) {
		return appendMatches(mt, dst, query, train, probe.Nop{})
	}
	return appendMatches(mt, dst, query, train, s)
}

// appendMatches is the query loop. A *fault.Machine sink (itself, not
// a wrapper) splits it per query: Machine.InertUnits says how many of
// the next queries cannot reach the armed site; those run matchQuery on
// the Nop sink and are accounted with their exact footprint
// (advanceQueries), the next one runs instrumented, and the loop asks
// again. A corrupted query count keeps the whole loop instrumented.
func appendMatches[S probe.Sink](mt *Matcher, dst []Match, query, train []features.Descriptor, m S) []Match {
	defer m.Enter(probe.RMatch)()
	if len(train) == 0 {
		return dst[:0]
	}
	out := dst[:0]
	if cap(out) < len(query) {
		out = make([]Match, 0, len(query))
	}
	nq := m.Cnt(len(query))
	fm, _ := any(m).(*fault.Machine)
	for qi := 0; qi < nq; {
		if fm != nil && nq == len(query) {
			if k := fm.InertUnits(queriesSpan(mt.cfg.Strategy, 1, uint64(len(train))), nq-qi); k > 0 {
				scanned := 0
				for j := qi; j < qi+k; j++ {
					var n int
					out, n = matchQuery(mt, out, j, query[j], train, probe.Nop{})
					scanned += n
				}
				advanceQueries(fm, mt.cfg.Strategy, uint64(k), uint64(scanned), uint64(len(train)))
				qi += k
				continue
			}
		}
		out, _ = matchQuery(mt, out, qi, query[m.Idx(qi)], train, m)
		qi++
	}
	return out
}

// queriesSpan is the tap footprint of n queries that scanned scanned
// train descriptors in total, all GPR in RMatch: per query the Idx that
// loads it and the train-count Cnt (SimpleNearest adds the tapped
// distance bound), per scanned train descriptor its Idx and
// HammingDist's DescriptorWords Word taps and one Cnt. RatioTest scans
// every train descriptor, so queriesSpan(s, 1, len(train)) is exact
// for one of its queries and bounds one SimpleNearest query.
func queriesSpan(s Strategy, n, scanned uint64) fault.TapCounters {
	perQuery := uint64(2)
	if s == SimpleNearest {
		perQuery = 3
	}
	var tc fault.TapCounters
	tc.RegionGPR[probe.RMatch] = perQuery*n + (features.DescriptorWords+2)*scanned
	tc.GPR = tc.RegionGPR[probe.RMatch]
	tc.Steps = tc.GPR
	return tc
}

// advanceQueries accounts n queries against nt train descriptors that
// ran on the Nop sink and scanned scanned of them: queriesSpan's taps
// plus the branch counts of the instrumented body (nearest2's and the
// ratio test's per-candidate bookkeeping, or nearest1's one).
func advanceQueries(m *fault.Machine, s Strategy, n, scanned, nt uint64) {
	branches := 2 * nt
	if s == SimpleNearest {
		branches = nt
	}
	span := queriesSpan(s, n, scanned)
	m.AdvanceTaps(span)
	m.OpsIn(probe.RMatch, probe.OpInt, span.GPR)
	m.OpsIn(probe.RMatch, probe.OpBranch, branches*n)
}

// matchQuery is the instrumented body for query qi with descriptor q:
// it appends q's match to out when the strategy keeps one, and returns
// out and how many train descriptors the scan visited.
func matchQuery[S probe.Sink](mt *Matcher, out []Match, qi int, q features.Descriptor, train []features.Descriptor, m S) ([]Match, int) {
	switch mt.cfg.Strategy {
	case SimpleNearest:
		best, bestDist, scanned := nearest1(q, train, mt.cfg.MaxDistance/2, m)
		// Absolute bound: only near-perfect matches survive.
		if bestDist <= m.Cnt(mt.cfg.MaxDistance) {
			out = append(out, Match{Query: qi, Train: best, Distance: bestDist})
		}
		return out, scanned
	default: // RatioTest
		best, bestDist, secondDist := nearest2(q, train, m)
		// The 2-NN bookkeeping costs extra comparisons per candidate
		// relative to the single-NN scan.
		m.Ops(probe.OpBranch, uint64(len(train)))
		// Keep only when the best is sufficiently closer than the
		// runner-up; with a single candidate the runner-up is treated
		// as maximally distant.
		if float64(bestDist) < mt.cfg.Ratio*float64(secondDist) {
			out = append(out, Match{Query: qi, Train: best, Distance: bestDist})
		}
		return out, len(train)
	}
}

// nearest1 scans train for the single nearest neighbor of q. Because
// VS_SM only accepts near-perfect matches anyway, the scan terminates
// early once a candidate within earlyExit bits is found — the
// algorithmic source of the approximation's speedup (§IV(3)). It also
// returns how many train descriptors it visited.
func nearest1[S probe.Sink](q features.Descriptor, train []features.Descriptor, earlyExit int, m S) (best, bestDist, scanned int) {
	best, bestDist = -1, features.DescriptorBits+1
	nt := m.Cnt(len(train))
	m.Ops(probe.OpBranch, uint64(nt))
	for ti := 0; ti < nt; ti++ {
		scanned++
		d := features.HammingDist(q, train[m.Idx(ti)], m)
		if d < bestDist {
			best, bestDist = ti, d
			if bestDist <= earlyExit {
				break
			}
		}
	}
	return best, bestDist, scanned
}

// nearest2 scans train for the two nearest neighbors of q.
func nearest2[S probe.Sink](q features.Descriptor, train []features.Descriptor, m S) (best, bestDist, secondDist int) {
	best = -1
	bestDist = features.DescriptorBits + 1
	secondDist = features.DescriptorBits + 1
	nt := m.Cnt(len(train))
	m.Ops(probe.OpBranch, uint64(nt))
	for ti := 0; ti < nt; ti++ {
		d := features.HammingDist(q, train[m.Idx(ti)], m)
		switch {
		case d < bestDist:
			secondDist = bestDist
			best, bestDist = ti, d
		case d < secondDist:
			secondDist = d
		}
	}
	return best, bestDist, secondDist
}

// SubsampleStrongest keeps the strongest 1/stride of the key points
// (by FAST corner score) — the VS_KDS approximation performs matching
// on one third of the key points, and keeping the most salient ones
// preserves the most matchable structure. The returned slices use
// fresh storage and keep the original deterministic ordering.
func SubsampleStrongest(kps []features.KeyPoint, descs []features.Descriptor, stride int) ([]features.KeyPoint, []features.Descriptor) {
	if stride <= 1 || len(kps) == 0 {
		return kps, descs
	}
	n := len(kps)
	if len(descs) < n {
		n = len(descs)
	}
	keep := (n + stride - 1) / stride
	// Select indices of the top-keep scores without disturbing order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if kps[idx[a]].Score != kps[idx[b]].Score {
			return kps[idx[a]].Score > kps[idx[b]].Score
		}
		return idx[a] < idx[b]
	})
	chosen := idx[:keep]
	sort.Ints(chosen)
	outK := make([]features.KeyPoint, 0, keep)
	outD := make([]features.Descriptor, 0, keep)
	for _, i := range chosen {
		outK = append(outK, kps[i])
		outD = append(outD, descs[i])
	}
	return outK, outD
}
