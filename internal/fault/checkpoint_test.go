package fault

import "testing"

// TestCountersSeedRoundtrip checks the checkpoint seam at the machine
// level: counters snapshotted mid-run and seeded into a fresh machine
// make its subsequent taps index exactly like the original's.
func TestCountersSeedRoundtrip(t *testing.T) {
	m := New()
	done := m.Enter(RFASTDetect)
	for i := 0; i < 7; i++ {
		m.Idx(i)
	}
	m.F64(1.5)
	done()
	m.Word(42)

	tc := m.Counters()
	if tc.GPR != 8 || tc.FPR != 1 || tc.Steps != 9 {
		t.Fatalf("counters = %+v, want GPR=8 FPR=1 Steps=9", tc)
	}
	if got := tc.For(GPR, RFASTDetect); got != 7 {
		t.Errorf("For(GPR, RFASTDetect) = %d, want 7", got)
	}
	if got := tc.For(FPR, RAny); got != 1 {
		t.Errorf("For(FPR, RAny) = %d, want 1", got)
	}

	fresh := New()
	fresh.SeedCounters(tc)
	if fresh.Counters() != tc {
		t.Fatalf("seeded counters = %+v, want %+v", fresh.Counters(), tc)
	}
	// The next tap on both machines must occupy the same site index.
	m.Idx(1)
	fresh.Idx(1)
	if m.GPRTaps() != fresh.GPRTaps() || m.Steps() != fresh.Steps() {
		t.Errorf("post-seed taps diverge: (%d,%d) vs (%d,%d)",
			m.GPRTaps(), m.Steps(), fresh.GPRTaps(), fresh.Steps())
	}
}

// TestCheckpointFor checks plan bucketing (CheckpointIndexFor): the
// latest boundary not past the plan's site, in the counter scoped to
// the plan's class/region.
func TestCheckpointFor(t *testing.T) {
	g := &GoldenRun{Schema: CheckpointSchema}
	mk := func(name string, gpr, fpr, regGPR uint64) Checkpoint {
		var tc TapCounters
		tc.GPR, tc.FPR = gpr, fpr
		tc.RegionGPR[RMatch] = regGPR
		return Checkpoint{Name: name, Counters: tc}
	}
	g.Checkpoints = []Checkpoint{
		mk("a", 10, 2, 0),
		mk("b", 20, 4, 5),
		mk("c", 30, 9, 11),
	}

	cases := []struct {
		plan Plan
		want string // "" = nil
	}{
		{Plan{Class: GPR, Region: RAny, Site: 9}, ""},    // before first boundary
		{Plan{Class: GPR, Region: RAny, Site: 10}, "a"},  // exactly on a boundary
		{Plan{Class: GPR, Region: RAny, Site: 25}, "b"},  // between boundaries
		{Plan{Class: GPR, Region: RAny, Site: 999}, "c"}, // past the last
		{Plan{Class: FPR, Region: RAny, Site: 3}, "a"},   // FPR counter stream
		{Plan{Class: GPR, Region: RMatch, Site: 4}, "a"}, // region-scoped stream
		{Plan{Class: GPR, Region: RMatch, Site: 7}, "b"},
	}
	for _, c := range cases {
		got := ""
		if i := g.CheckpointIndexFor(c.plan); i >= 0 {
			got = g.Checkpoints[i].Name
		}
		if got != c.want {
			t.Errorf("CheckpointIndexFor(%v) selects %q, want %q", c.plan, got, c.want)
		}
	}
}
