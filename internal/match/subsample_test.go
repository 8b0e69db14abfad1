package match

import (
	"testing"
	"testing/quick"

	"vsresil/internal/features"
	"vsresil/internal/probe"
)

func TestSubsampleStrongestKeepsTopScores(t *testing.T) {
	kps := []features.KeyPoint{
		{X: 0, Score: 5}, {X: 1, Score: 50}, {X: 2, Score: 10},
		{X: 3, Score: 40}, {X: 4, Score: 1}, {X: 5, Score: 30},
	}
	descs := make([]features.Descriptor, len(kps))
	outK, outD := SubsampleStrongest(kps, descs, 3)
	if len(outK) != 2 || len(outD) != 2 {
		t.Fatalf("kept %d, want 2", len(outK))
	}
	// Top-2 scores are 50 (X=1) and 40 (X=3), in original order.
	if outK[0].X != 1 || outK[1].X != 3 {
		t.Errorf("kept %v, want X=1 then X=3", outK)
	}
}

func TestSubsampleStrongestPreservesOrder(t *testing.T) {
	kps := []features.KeyPoint{
		{X: 0, Score: 10}, {X: 1, Score: 10}, {X: 2, Score: 10},
		{X: 3, Score: 10}, {X: 4, Score: 10}, {X: 5, Score: 10},
	}
	descs := make([]features.Descriptor, len(kps))
	outK, _ := SubsampleStrongest(kps, descs, 2)
	for i := 1; i < len(outK); i++ {
		if outK[i].X <= outK[i-1].X {
			t.Fatalf("order not preserved: %v", outK)
		}
	}
}

func TestSubsampleStrongestEdgeCases(t *testing.T) {
	kps := make([]features.KeyPoint, 3)
	descs := make([]features.Descriptor, 3)
	if outK, _ := SubsampleStrongest(kps, descs, 1); len(outK) != 3 {
		t.Error("stride 1 should keep all")
	}
	if outK, _ := SubsampleStrongest(nil, nil, 3); len(outK) != 0 {
		t.Error("empty input should stay empty")
	}
	// Mismatched lengths stay parallel.
	outK, outD := SubsampleStrongest(make([]features.KeyPoint, 5), make([]features.Descriptor, 3), 2)
	if len(outK) != len(outD) {
		t.Error("outputs must stay parallel")
	}
}

// Property: SubsampleStrongest keeps ceil(n/stride) items whose
// minimum score is >= the maximum score of the discarded items.
func TestPropertySubsampleStrongestDominates(t *testing.T) {
	f := func(scores []uint8, strideRaw uint8) bool {
		stride := 2 + int(strideRaw%4)
		kps := make([]features.KeyPoint, len(scores))
		descs := make([]features.Descriptor, len(scores))
		for i, s := range scores {
			kps[i] = features.KeyPoint{X: i, Score: int(s)}
		}
		outK, outD := SubsampleStrongest(kps, descs, stride)
		if len(outK) != len(outD) {
			return false
		}
		if len(kps) == 0 {
			return len(outK) == 0
		}
		wantKeep := (len(kps) + stride - 1) / stride
		if len(outK) != wantKeep {
			return false
		}
		kept := map[int]bool{}
		minKept := 1 << 30
		for _, k := range outK {
			kept[k.X] = true
			if k.Score < minKept {
				minKept = k.Score
			}
		}
		for _, k := range kps {
			if !kept[k.X] && k.Score > minKept {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimpleNearestEarlyExitStillValid(t *testing.T) {
	// With many near-identical candidates, early exit must return a
	// match within the bound whose reported distance is correct.
	q := []features.Descriptor{desc(0, 1)}
	var train []features.Descriptor
	for i := 0; i < 50; i++ {
		train = append(train, desc(0, 1, 100+i))
	}
	ms := New(SimpleConfig()).Match(q, train, nil)
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	if got := features.HammingDist(q[0], train[ms[0].Train], probe.Nop{}); got != ms[0].Distance {
		t.Errorf("reported distance %d, true %d", ms[0].Distance, got)
	}
	if ms[0].Distance > SimpleConfig().MaxDistance {
		t.Error("match beyond the bound")
	}
}
