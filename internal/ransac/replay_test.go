package ransac

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/geom"
	"vsresil/internal/probe"
)

// replayFixture returns noisy correspondences with outliers whose first
// 20 source points lie on one line, so some samples are collinear and
// their fit fails, and the golden record of a search over them.
func replayFixture(t *testing.T, model Model) (src, dst []geom.Pt, cfg Config, rec *Record) {
	t.Helper()
	h := geom.Translation(5, 12).Mul(geom.Rotation(0.05))
	src, dst = makeCorrespondences(h, 60, 0.4, 2, 23)
	for i := 0; i < 20; i++ {
		src[i] = geom.Pt{X: 10 + 7*float64(i), Y: 50}
		dst[i] = h.Apply(src[i])
	}
	cfg = DefaultConfig(model)
	cfg.Seed = 7
	cfg.Iterations = 120
	m := fault.New()
	sr, err := Begin(src, dst, cfg, m)
	if err != nil {
		t.Fatalf("%v: Begin: %v", model, err)
	}
	if rec = sr.Capture(); rec == nil {
		t.Fatalf("%v: Capture made no record", model)
	}
	sr.Step(src, dst, sr.Iterations(), m)
	if len(rec.counts) != cfg.Iterations {
		t.Fatalf("%v: record holds %d iterations, want %d", model, len(rec.counts), cfg.Iterations)
	}
	failed := 0
	for _, c := range rec.counts {
		if c == failedFit {
			failed++
		}
	}
	if failed == 0 || failed == len(rec.counts) {
		t.Fatalf("%v: %d of %d fits failed; the fixture needs both kinds", model, failed, len(rec.counts))
	}
	return src, dst, cfg, rec
}

// replayed runs a search that replays rec, stepping in two chunks, and
// returns its result.
func replayed(src, dst []geom.Pt, cfg Config, rec *Record, s probe.Sink) (*Result, error) {
	sr, err := Begin(src, dst, cfg, s)
	if err != nil {
		return nil, err
	}
	sr.Replay(rec)
	sr.Step(src, dst, 50, s)
	sr.Step(src, dst, sr.Iterations(), s)
	return sr.Finish(src, dst, s)
}

// TestInertRANSACSplit checks golden RANSAC replay under an armed
// machine: with a plan landing at the first and at the last tap of
// every fitted iteration (and at the tapped counts, and in Finish),
// whole-program or scoped to RRANSAC, or a hang budget expiring there,
// the machine path — inert iterations taking the recorded counts, the
// rest instrumented — must leave the same result, panic kind, tap
// counters and op matrix as the instrumented loop behind
// faulttest.GenericSink, which never replays. A plan on a tapped count
// makes the search refuse the record altogether.
func TestInertRANSACSplit(t *testing.T) {
	t.Parallel()
	for _, model := range []Model{ModelHomography, ModelAffine} {
		src, dst, cfg, rec := replayFixture(t, model)
		n := len(src)
		kernel := func(s probe.Sink) string {
			res, err := replayed(src, dst, cfg, rec, s)
			return fmt.Sprint(res, err)
		}
		// Units: the two tapped counts, then one per fitted iteration of
		// n Idx taps, then Finish.
		iterations := func(taps []faulttest.Tap) [][2]int {
			units := [][2]int{{0, 2}}
			i := 2
			for ; i < len(taps) && taps[i].Kind == 'I'; i += n {
				units = append(units, [2]int{i, i + n})
			}
			return append(units, [2]int{i, len(taps)})
		}
		if c := faulttest.CheckUnitSplit(t, model.String(), kernel, iterations); c == 0 {
			t.Fatalf("%v: no split case ran", model)
		}
	}
}

// TestSearchReplayMatchesEstimate checks that a search replaying its
// golden record on a plan-free machine — every fitted iteration inert,
// so every count taken from the record — finishes with the result of
// Estimate on the Nop sink, bit for bit, and leaves the tap counters
// and op matrix of the instrumented search. So does a record cut short,
// whose missing iterations run instrumented. Zeroing the record's
// counts leaves the replay with no consensus, so the counts are really
// read.
func TestSearchReplayMatchesEstimate(t *testing.T) {
	for _, model := range []Model{ModelHomography, ModelAffine} {
		src, dst, cfg, rec := replayFixture(t, model)
		want, err := Estimate(src, dst, cfg, probe.Nop{})
		if err != nil {
			t.Fatalf("%v: Estimate: %v", model, err)
		}
		mRef := fault.New()
		if _, err := Estimate(src, dst, cfg, faulttest.GenericSink{Sink: mRef}); err != nil {
			t.Fatalf("%v: instrumented Estimate: %v", model, err)
		}
		mRep := fault.New()
		got, err := replayed(src, dst, cfg, rec, mRep)
		if err != nil {
			t.Fatalf("%v: replayed search: %v", model, err)
		}
		if !got.H.EqualBits(want.H) || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
			!slices.Equal(got.Inliers, want.Inliers) {
			t.Errorf("%v: replayed result differs from Estimate's", model)
		}
		if traceOf(mRep) != traceOf(mRef) {
			t.Errorf("%v: replay accounting differs from the instrumented search:\n replay %+v\n    ref %+v",
				model, mRep.Counters(), mRef.Counters())
		}
		short := *rec
		short.counts = rec.counts[:len(rec.counts)*2/3]
		mShort := fault.New()
		got, err = replayed(src, dst, cfg, &short, mShort)
		if err != nil || !got.H.EqualBits(want.H) || !slices.Equal(got.Inliers, want.Inliers) {
			t.Errorf("%v: a replay of a short record returned %v, %v; want Estimate's result", model, got, err)
		}
		if traceOf(mShort) != traceOf(mRef) {
			t.Errorf("%v: a short record's replay accounting differs from the instrumented search", model)
		}
		zeroed := *rec
		zeroed.counts = make([]uint16, len(rec.counts))
		if _, err := replayed(src, dst, cfg, &zeroed, fault.New()); !errors.Is(err, ErrNoConsensus) {
			t.Errorf("%v: a replay of zeroed counts returned %v, want ErrNoConsensus", model, err)
		}
	}
}
