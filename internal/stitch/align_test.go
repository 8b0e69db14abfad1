package stitch

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/features"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/ransac"
	"vsresil/internal/stats"
)

// alignSnap is one registration boundary of a golden pass: its name,
// the machine's counters there and the state snapshot.
type alignSnap struct {
	name     string
	counters fault.TapCounters
	a        AlignState
}

// goldenAlign runs the registration pass and the composite on one
// counting machine, snapshotting every registration boundary as a
// golden capture does. It returns the snapshots, the output and the
// machine's final counters.
func goldenAlign(t *testing.T, st *Stitcher, feats []FrameFeatures, frames []*imgproc.Gray) ([]alignSnap, []byte, fault.TapCounters) {
	t.Helper()
	m := fault.New()
	a := st.BeginAlign(frames, m)
	var snaps []alignSnap
	for a.Next < a.N {
		if st.AlignStep(feats, &a, nil, func(name string) bool {
			snaps = append(snaps, alignSnap{name, m.Counters(), a.Snapshot()})
			return false
		}, m) {
			t.Fatal("AlignStep converged with a hook that never fires")
		}
	}
	res, err := st.Composite(frames, &a, m)
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res.Encode(), m.Counters()
}

// TestAlignBoundaries checks the stepwise registration pass: every
// pair reports "pair[i]" and then a boundary before every
// RANSACEvery-th iteration of each search it runs, the hook changes no
// output byte, and resuming from any snapshot — twice, so a resume
// that mutated the shared snapshot would show — reports that boundary
// first and reproduces the output and the final tap counters.
func TestAlignBoundaries(t *testing.T) {
	frames := testFrames(t, 8)
	st := New(DefaultConfig())
	feats := make([]FrameFeatures, len(frames))
	for i, f := range frames {
		feats[i] = st.DetectFrame(f, probe.Nop{}, nil)
	}
	snaps, want, wantCounters := goldenAlign(t, st, feats, frames)
	plain, err := st.Run(frames, probe.Nop{})
	if err != nil || !bytes.Equal(plain.Encode(), want) {
		t.Fatalf("boundary hook changed the output (err=%v)", err)
	}
	interior := 0
	for i, s := range snaps {
		pair := fmt.Sprintf("pair[%d]", s.a.Next)
		switch {
		case s.name == pair:
			if s.a.pair != nil {
				t.Errorf("%s: snapshot holds a pair in progress", s.name)
			}
		case strings.HasPrefix(s.name, pair+"/"):
			it := s.a.search.Iteration()
			if s.name != fmt.Sprintf("%s/%v@%d", pair, s.a.model, it) || it%RANSACEvery != 0 || s.a.pair == nil {
				t.Errorf("%s: boundary at iteration %d of a %v search", s.name, it, s.a.model)
			}
			if i == 0 || !strings.HasPrefix(snaps[i-1].name, pair) {
				t.Errorf("%s: not preceded by %s", s.name, pair)
			}
			if it > 0 {
				interior++
			}
		default:
			t.Errorf("boundary %s while registering frame %d", s.name, s.a.Next)
		}
	}
	if interior == 0 && RANSACEvery < ransac.DefaultConfig(ransac.ModelHomography).Iterations {
		t.Fatal("no boundary inside a RANSAC search")
	}
	for round := range 2 {
		for _, s := range snaps {
			m := fault.New()
			m.SeedCounters(s.counters)
			a := s.a
			first := ""
			for a.Next < a.N {
				st.AlignStep(feats, &a, nil, func(name string) bool {
					if first == "" {
						first = name
					}
					return false
				}, m)
			}
			res, err := st.Composite(frames, &a, m)
			if err != nil || !bytes.Equal(res.Encode(), want) {
				t.Fatalf("round %d: resume from %s: err=%v, output equal=%v", round, s.name, err, err == nil && bytes.Equal(res.Encode(), want))
			}
			if m.Counters() != wantCounters {
				t.Fatalf("round %d: resume from %s ends with different tap counters", round, s.name)
			}
			if first != s.name {
				t.Fatalf("round %d: resume from %s reported %q first", round, s.name, first)
			}
		}
	}
}

// TestAlignStateEqualLive checks the registration half of the
// convergence guard's state compare at an interior RANSAC boundary:
// every field a later pair or the composite reads breaks the equality
// when changed, and the frame reports, the discard count and the
// features of a registered frame other than the reference do not.
func TestAlignStateEqualLive(t *testing.T) {
	frames := testFrames(t, 8)
	st := New(DefaultConfig())
	feats := make([]FrameFeatures, len(frames))
	for i, f := range frames {
		feats[i] = st.DetectFrame(f, probe.Nop{}, nil)
	}
	snaps, _, _ := goldenAlign(t, st, feats, frames)
	var golden *AlignState
	for i := range snaps {
		if a := &snaps[i].a; a.pair != nil && a.search.Iteration() > 0 && a.refFrame > 0 {
			golden = a
			break
		}
	}
	if golden == nil {
		t.Fatal("no interior RANSAC boundary past the first registration")
	}
	// A copy of a frame's features in storage of its own, so the
	// compare cannot short-circuit on shared backing arrays.
	clone := func(f FrameFeatures, bump bool) FrameFeatures {
		g := FrameFeatures{KPs: append([]features.KeyPoint(nil), f.KPs...), Descs: append([]features.Descriptor(nil), f.Descs...)}
		if bump {
			g.KPs[0].X++
		}
		return g
	}
	clonePair := func(a *AlignState) *pairScratch {
		p := *a.pair
		p.src = append([]geom.Pt(nil), p.src...)
		p.dst = append([]geom.Pt(nil), p.dst...)
		return &p
	}
	cases := []struct {
		name   string
		live   bool
		mutate func(a *AlignState, fs []FrameFeatures)
	}{
		{"nothing", false, func(*AlignState, []FrameFeatures) {}},
		{"copied features and pair", false, func(a *AlignState, fs []FrameFeatures) {
			for i := range fs {
				fs[i] = clone(fs[i], false)
			}
			a.pair = clonePair(a)
		}},
		{"reports", false, func(a *AlignState, _ []FrameFeatures) {
			a.reports = append(a.reports[:len(a.reports):len(a.reports)], FrameReport{Matches: 1})
		}},
		{"discarded", false, func(a *AlignState, _ []FrameFeatures) { a.discarded++ }},
		{"registered non-reference features", false, func(a *AlignState, fs []FrameFeatures) {
			fs[0] = clone(fs[0], true)
		}},
		{"reference features", true, func(a *AlignState, fs []FrameFeatures) {
			fs[a.refFrame] = clone(fs[a.refFrame], true)
		}},
		{"unregistered features", true, func(a *AlignState, fs []FrameFeatures) {
			fs[len(fs)-1] = clone(fs[len(fs)-1], true)
		}},
		{"regs", true, func(a *AlignState, _ []FrameFeatures) {
			a.regs = append([]registration(nil), a.regs...)
			a.regs[len(a.regs)-1].h[2] += 1
		}},
		{"reference transform", true, func(a *AlignState, _ []FrameFeatures) { a.refToSegment[0] = -a.refToSegment[0] }},
		{"failure streak", true, func(a *AlignState, _ []FrameFeatures) { a.failStreak++ }},
		{"search state", true, func(a *AlignState, _ []FrameFeatures) {
			a.search.Step(a.pair.src, a.pair.dst, a.search.Iteration()+1, nil)
		}},
		{"correspondences", true, func(a *AlignState, _ []FrameFeatures) {
			a.pair = clonePair(a)
			a.pair.dst[0].X = -a.pair.dst[0].X - 1
		}},
		{"gate", true, func(a *AlignState, _ []FrameFeatures) {
			a.pair = clonePair(a)
			a.pair.gateA++
		}},
	}
	for _, tc := range cases {
		a := *golden
		fs := append([]FrameFeatures(nil), feats...)
		tc.mutate(&a, fs)
		if eq := golden.EqualLive(&a, feats, fs); eq == tc.live {
			t.Errorf("%s: EqualLive = %v, want %v", tc.name, eq, !tc.live)
		}
	}
}

// TestGoldenSearchNeedsGoldenInputs checks that a search reads the
// golden record of its pair and model only on the golden search's
// inputs. Pair 1's correspondences, matched again, take the record; the
// same correspondences with one bit of one point flipped, a search
// whose tapped correspondence count a fault corrupted, and any search
// against a golden captured on the Nop sink (which records nothing) do
// not.
func TestGoldenSearchNeedsGoldenInputs(t *testing.T) {
	frames := testFrames(t, 8)
	st := New(DefaultConfig())
	feats := make([]FrameFeatures, len(frames))
	for i, f := range frames {
		feats[i] = st.DetectFrame(f, probe.Nop{}, nil)
	}
	capture := func(m probe.Sink) *GoldenSearches {
		gs := NewGoldenSearches()
		a := st.BeginAlign(frames, m)
		for a.Next < a.N {
			st.AlignStep(feats, &a, gs, nil, m)
		}
		gs.Close()
		return gs
	}
	gs, nop := capture(fault.New()), capture(probe.Nop{})
	if len(gs.pairs) < 2 || gs.pairs[1][ransac.ModelHomography].rec == nil {
		t.Fatal("the golden capture recorded no homography search for pair 1")
	}
	if len(nop.pairs) != 0 {
		t.Error("a capture on the Nop sink recorded searches")
	}
	// replays begins pair 1's homography search on fresh matches, edited
	// by edit, and reports whether it takes the record of set.
	replays := func(set *GoldenSearches, m probe.Sink, edit func(*pairScratch)) bool {
		t.Helper()
		a := AlignState{Next: 1, pair: st.matchPair(&feats[1], &feats[0], probe.Nop{})}
		edit(a.pair)
		if !st.beginSearch(&a, ransac.ModelHomography, nil, m) {
			t.Fatal("pair 1's homography search did not begin")
		}
		return set.replay(1, ransac.ModelHomography, a.pair, &a.search)
	}
	keep := func(*pairScratch) {}
	if !replays(gs, fault.New(), keep) {
		t.Fatal("the golden search's own inputs do not take its record")
	}
	for name, edit := range map[string]func(*pairScratch){
		"src": func(p *pairScratch) {
			q := &p.src[len(p.src)-1]
			q.X = math.Float64frombits(math.Float64bits(q.X) ^ 1)
		},
		"dst": func(p *pairScratch) {
			q := &p.dst[0]
			q.Y = math.Float64frombits(math.Float64bits(q.Y) ^ 1)
		},
	} {
		if replays(gs, fault.New(), edit) {
			t.Errorf("a search whose %s differs in one bit takes the golden record", name)
		}
	}
	// Begin's first tap is the correspondence count: flip its low bit.
	m := fault.NewWithPlan(fault.Plan{Class: fault.GPR, Reg: int(stats.Hash64(0) % fault.NumRegisters),
		Site: 0, Window: 1, Region: fault.RAny}, 0)
	if replays(gs, m, keep) || !m.Injected() {
		t.Errorf("a search with a corrupted correspondence count takes the golden record (injected %v)", m.Injected())
	}
	if replays(nop, fault.New(), keep) {
		t.Error("a search takes a record from a golden captured on the Nop sink")
	}
}
