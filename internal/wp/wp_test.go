package wp

import (
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/virat"
)

func TestDefaultRuns(t *testing.T) {
	b := Default(virat.TestScale())
	out, err := b.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 8+b.DstW*b.DstH {
		t.Errorf("output length %d, want %d", len(out), 8+b.DstW*b.DstH)
	}
}

func TestRunDeterministic(t *testing.T) {
	b := Default(virat.TestScale())
	a, err := b.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Run(fault.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(c) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

func TestWPTapsConcentrateInWarpRegions(t *testing.T) {
	b := Default(virat.TestScale())
	m := fault.New()
	if _, err := b.Run(m); err != nil {
		t.Fatal(err)
	}
	warpTaps := m.RegionTaps(fault.GPR, fault.RWarpInvoker) +
		m.RegionTaps(fault.GPR, fault.RRemapBilinear)
	if warpTaps == 0 {
		t.Fatal("no warp taps")
	}
	if frac := float64(warpTaps) / float64(m.GPRTaps()); frac < 0.95 {
		t.Errorf("warp tap fraction %v; WP should be almost entirely warp", frac)
	}
}
