package fault

import (
	"bytes"
	"context"
	"testing"
)

func TestAnalyzeCrossTabulation(t *testing.T) {
	res := &Result{
		Trials: []Trial{
			{Plan: Plan{Reg: 0, Bit: 0}, Outcome: OutcomeMask},
			{Plan: Plan{Reg: 0, Bit: 40}, Outcome: OutcomeCrash},
			{Plan: Plan{Reg: 1, Bit: 10}, Outcome: OutcomeSDC},
			{Plan: Plan{Reg: 1, Bit: 63}, Outcome: OutcomeCrash},
		},
	}
	a := Analyze(res)
	if a.Total != 4 {
		t.Errorf("Total = %d", a.Total)
	}
	if a.ByRegister[0][OutcomeMask] != 1 || a.ByRegister[0][OutcomeCrash] != 1 {
		t.Error("register 0 counts wrong")
	}
	if a.ByBit[40][OutcomeCrash] != 1 {
		t.Error("bit 40 counts wrong")
	}
	if a.ByBitGroup[BitsLow][OutcomeMask] != 1 ||
		a.ByBitGroup[BitsMid][OutcomeSDC] != 1 ||
		a.ByBitGroup[BitsHigh][OutcomeCrash] != 2 {
		t.Error("bit group counts wrong")
	}
}

func TestBitGroupOf(t *testing.T) {
	cases := map[int]BitGroup{0: BitsLow, 7: BitsLow, 8: BitsMid, 31: BitsMid, 32: BitsHigh, 63: BitsHigh}
	for bit, want := range cases {
		if got := bitGroupOf(bit); got != want {
			t.Errorf("bitGroupOf(%d) = %v, want %v", bit, got, want)
		}
	}
}

func TestGroupRatesEmpty(t *testing.T) {
	a := &Analysis{}
	for _, r := range a.GroupRates(BitsLow) {
		if r != 0 {
			t.Error("empty group rates should be zero")
		}
	}
	if a.RegisterCrashSpread(1) != 0 {
		t.Error("empty spread should be zero")
	}
}

func TestAnalyzeOnRealCampaign(t *testing.T) {
	res, err := runCampaign(context.Background(), SessionConfig{
		App: toyApp, Class: GPR, Region: RAny, Workers: 2,
	}, 400, 7)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	a := Analyze(res)
	if a.Total != 400 {
		t.Fatalf("Total = %d", a.Total)
	}
	// High bits of address-forming values crash more than low bits —
	// the structural claim behind the bit-group partition.
	lo := a.GroupRates(BitsLow)
	hi := a.GroupRates(BitsHigh)
	if hi[OutcomeCrash] <= lo[OutcomeCrash] {
		t.Errorf("high-bit crash rate %.3f not above low-bit %.3f",
			hi[OutcomeCrash], lo[OutcomeCrash])
	}
	var buf bytes.Buffer
	a.Write(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}
