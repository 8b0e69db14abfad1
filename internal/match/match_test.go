package match

import (
	"fmt"
	"testing"
	"testing/quick"

	"vsresil/internal/fault"
	"vsresil/internal/faulttest"
	"vsresil/internal/features"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// desc builds a descriptor with the given bits set.
func desc(bits ...int) features.Descriptor {
	var d features.Descriptor
	for _, b := range bits {
		d[b>>6] |= 1 << uint(b&63)
	}
	return d
}

func TestRatioTestKeepsUnambiguous(t *testing.T) {
	q := []features.Descriptor{desc(0, 1, 2)}
	train := []features.Descriptor{
		desc(0, 1, 2),        // distance 0: perfect
		desc(10, 20, 30, 40), // far away
		desc(100, 120, 140),  // far away
	}
	mt := New(DefaultConfig())
	ms := mt.Match(q, train, nil)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0].Train != 0 || ms[0].Distance != 0 {
		t.Errorf("match = %+v", ms[0])
	}
}

func TestRatioTestRejectsAmbiguous(t *testing.T) {
	q := []features.Descriptor{desc(0, 1, 2)}
	// Two nearly identical candidates: ratio test must reject.
	train := []features.Descriptor{
		desc(0, 1, 2, 50),
		desc(0, 1, 2, 51),
	}
	mt := New(DefaultConfig())
	if ms := mt.Match(q, train, nil); len(ms) != 0 {
		t.Errorf("ambiguous match kept: %+v", ms)
	}
}

func TestSimpleNearestKeepsCloseMatch(t *testing.T) {
	q := []features.Descriptor{desc(0, 1, 2)}
	train := []features.Descriptor{
		desc(0, 1, 2, 50),
		desc(0, 1, 2, 51),
	}
	// VS_SM takes the single nearest under the bound even when
	// ambiguous — the failure mode the paper describes for identical
	// objects.
	mt := New(SimpleConfig())
	ms := mt.Match(q, train, nil)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0].Distance != 1 {
		t.Errorf("distance = %d", ms[0].Distance)
	}
}

func TestSimpleNearestRejectsFarMatch(t *testing.T) {
	q := []features.Descriptor{desc(0, 1, 2)}
	var far features.Descriptor
	for i := 0; i < 200; i++ {
		far[i>>6] |= 1 << uint(i&63)
	}
	train := []features.Descriptor{far}
	mt := New(SimpleConfig())
	if ms := mt.Match(q, train, nil); len(ms) != 0 {
		t.Errorf("far match kept: %+v", ms)
	}
}

func TestMatchEmptyInputs(t *testing.T) {
	mt := New(DefaultConfig())
	if ms := mt.Match(nil, nil, nil); ms != nil {
		t.Errorf("nil inputs gave %v", ms)
	}
	if ms := mt.Match([]features.Descriptor{desc(1)}, nil, nil); ms != nil {
		t.Errorf("empty train gave %v", ms)
	}
	if ms := mt.Match(nil, []features.Descriptor{desc(1)}, nil); len(ms) != 0 {
		t.Errorf("empty query gave %v", ms)
	}
}

func TestMatchSingleTrainCandidate(t *testing.T) {
	// With one candidate the ratio test compares against "infinite"
	// second distance, so a good match is kept.
	q := []features.Descriptor{desc(0)}
	train := []features.Descriptor{desc(0)}
	mt := New(DefaultConfig())
	if ms := mt.Match(q, train, nil); len(ms) != 1 {
		t.Errorf("single perfect candidate rejected: %v", ms)
	}
}

func TestConfigDefaults(t *testing.T) {
	mt := New(Config{})
	cfg := mt.Config()
	if cfg.Ratio != 0.75 || cfg.MaxDistance != 48 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	mt2 := New(Config{Ratio: 1.5})
	if mt2.Config().Ratio != 0.75 {
		t.Error("out-of-range ratio not clamped")
	}
}

func TestStrategyString(t *testing.T) {
	if RatioTest.String() == "" || SimpleNearest.String() == "" || Strategy(9).String() == "" {
		t.Error("empty strategy string")
	}
}

func TestMatchInstrumentedIdentical(t *testing.T) {
	var q, train []features.Descriptor
	for i := 0; i < 20; i++ {
		q = append(q, desc(i, i+1, i+2))
		train = append(train, desc(i, i+1, i+3))
	}
	mt := New(DefaultConfig())
	bare := mt.Match(q, train, nil)
	inst := mt.Match(q, train, faulttest.GenericSink{Sink: fault.New()})
	if len(bare) != len(inst) {
		t.Fatalf("instrumentation changed results: %d vs %d", len(bare), len(inst))
	}
	for i := range bare {
		if bare[i] != inst[i] {
			t.Fatalf("match %d differs", i)
		}
	}
}

func TestMatchTapsInRegion(t *testing.T) {
	q := []features.Descriptor{desc(0)}
	train := []features.Descriptor{desc(0), desc(1)}
	m := fault.New()
	New(DefaultConfig()).Match(q, train, m)
	if m.RegionTaps(fault.GPR, fault.RMatch) == 0 {
		t.Error("matching executed no taps in its region")
	}
}

// Property: every match returned by either strategy refers to valid
// indices and reports the true Hamming distance.
func TestPropertyMatchIndicesValid(t *testing.T) {
	f := func(seeds []uint64, simple bool) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 30 {
			seeds = seeds[:30]
		}
		var q, train []features.Descriptor
		for i, s := range seeds {
			d := features.Descriptor{s, s >> 1, s << 1, s ^ 0xff}
			if i%2 == 0 {
				q = append(q, d)
			} else {
				train = append(train, d)
			}
		}
		cfg := DefaultConfig()
		if simple {
			cfg = SimpleConfig()
		}
		for _, mm := range New(cfg).Match(q, train, nil) {
			if mm.Query < 0 || mm.Query >= len(q) || mm.Train < 0 || mm.Train >= len(train) {
				return false
			}
			if mm.Distance != features.HammingDist(q[mm.Query], train[mm.Train], probe.Nop{}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatchRatio(b *testing.B) {
	var q, train []features.Descriptor
	for i := 0; i < 250; i++ {
		q = append(q, features.Descriptor{uint64(i) * 0x9e37, uint64(i) << 7, uint64(i), ^uint64(i)})
		train = append(train, features.Descriptor{uint64(i) * 0x1234, uint64(i) << 3, uint64(i) ^ 5, uint64(i)})
	}
	mt := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Match(q, train, nil)
	}
}

func BenchmarkMatchSimple(b *testing.B) {
	var q, train []features.Descriptor
	for i := 0; i < 250; i++ {
		q = append(q, features.Descriptor{uint64(i) * 0x9e37, uint64(i) << 7, uint64(i), ^uint64(i)})
		train = append(train, features.Descriptor{uint64(i) * 0x1234, uint64(i) << 3, uint64(i) ^ 5, uint64(i)})
	}
	mt := New(SimpleConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Match(q, train, nil)
	}
}

// TestInertMatchSplit checks the per-query split of the matcher under
// an armed machine, for both strategies: with a plan landing at the
// first and at the last tap of every query (and at the query count), or
// a hang budget expiring there, the machine path — inert queries on the
// Nop sink, the rest instrumented — must leave the same matches, panic
// kind, tap counters and op matrix as the instrumented loop behind
// faulttest.GenericSink. Near copies of some queries in the train set
// make SimpleNearest stop its scans early.
func TestInertMatchSplit(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(0x5B11E)
	random := func() features.Descriptor {
		return features.Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	query := make([]features.Descriptor, 8)
	train := make([]features.Descriptor, 7)
	for i := range query {
		query[i] = random()
	}
	for i := range train {
		train[i] = random()
		if i%2 == 1 {
			train[i] = query[i]
			train[i][0] ^= 1 << uint(i)
		}
	}
	for _, cfg := range []Config{DefaultConfig(), SimpleConfig()} {
		mt := New(cfg)
		kernel := func(s probe.Sink) string { return fmt.Sprint(mt.Match(query, train, s)) }
		// Units: the query count, then one per query, each starting at
		// the Idx that loads it (the next tap is the train-count Cnt; a
		// train descriptor's Idx is followed by a Word).
		queries := func(taps []faulttest.Tap) [][2]int {
			units := [][2]int{{0, 1}}
			for i := 1; i+1 < len(taps); i++ {
				if taps[i].Kind == 'I' && taps[i+1].Kind == 'C' {
					units[len(units)-1][1] = i
					units = append(units, [2]int{i, len(taps)})
				}
			}
			return units
		}
		if n := faulttest.CheckUnitSplit(t, cfg.Strategy.String(), kernel, queries); n == 0 {
			t.Fatalf("%v: no split case ran", cfg.Strategy)
		}
	}
}
