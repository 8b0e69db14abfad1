package faulttest

import (
	"fmt"
	"testing"

	"vsresil/internal/fault"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
)

// Tap is one tap a TapLog saw: its kind (the Sink method: 'I'dx,
// 'C'nt, 'P'ix, 'W'ord or 'F'64), its class and region, and the
// machine's counters just before it.
type Tap struct {
	Kind   byte
	Class  fault.Class
	Region fault.Region
	Before fault.TapCounters
}

// TapLog forwards every call to M behind probe.Sink — so kernels run
// every unit instrumented — and records each tap.
type TapLog struct {
	probe.Sink
	M    *fault.Machine
	Taps []Tap
}

// NewTapLog returns a log over a fresh plan-free machine.
func NewTapLog() *TapLog {
	m := fault.New()
	return &TapLog{Sink: m, M: m}
}

func (l *TapLog) log(kind byte, c fault.Class) {
	l.Taps = append(l.Taps, Tap{Kind: kind, Class: c, Region: l.M.CurrentRegion(), Before: l.M.Counters()})
}

// Idx implements probe.Sink.
func (l *TapLog) Idx(v int) int { l.log('I', fault.GPR); return l.Sink.Idx(v) }

// Cnt implements probe.Sink.
func (l *TapLog) Cnt(v int) int { l.log('C', fault.GPR); return l.Sink.Cnt(v) }

// Pix implements probe.Sink.
func (l *TapLog) Pix(v uint8) uint8 { l.log('P', fault.GPR); return l.Sink.Pix(v) }

// Word implements probe.Sink.
func (l *TapLog) Word(v uint64) uint64 { l.log('W', fault.GPR); return l.Sink.Word(v) }

// F64 implements probe.Sink.
func (l *TapLog) F64(v float64) float64 { l.log('F', fault.FPR); return l.Sink.F64(v) }

// KernelRun is everything a kernel run leaves observable: its output,
// the type of the panic it raised (empty if none), and the machine's
// tap counters and op matrix afterwards.
type KernelRun struct {
	Out   string
	Panic string
	Taps  fault.TapCounters
	Ops   [fault.NumRegions][fault.NumOpClasses]uint64
}

// RunKernel runs kernel once on m — through m itself, or hidden behind
// GenericSink when generic is set — and captures the KernelRun.
func RunKernel(m *fault.Machine, generic bool, kernel func(probe.Sink) string) (run KernelRun) {
	var s probe.Sink = m
	if generic {
		s = GenericSink{Sink: m}
	}
	defer func() {
		if r := recover(); r != nil {
			run.Panic = fmt.Sprintf("%T", r)
		}
		run.Taps = m.Counters()
		for r := fault.Region(0); r < fault.NumRegions; r++ {
			for c := fault.OpClass(0); c < fault.NumOpClasses; c++ {
				run.Ops[r][c] = m.OpCount(r, c)
			}
		}
	}()
	run.Out = kernel(s)
	return run
}

// registerFor is the register a tap of class c at whole-program class
// index idx is attributed to — the machine's attribution hash, so a
// plan for that register lands exactly at that tap. CheckUnitSplit
// verifies that every such plan lands.
func registerFor(c fault.Class, idx uint64) int {
	if c == fault.FPR {
		idx ^= 0xF0F0
	}
	return int(stats.Hash64(idx) % fault.NumRegisters)
}

// CheckUnitSplit is the split-exactness check for a kernel that runs
// inert units on its clean mirror under a *fault.Machine. It logs the
// kernel's taps with every unit instrumented, asks units for the
// kernel's unit ranges (half-open indices into the log), and for the
// first and the last tap of each class in every unit arms in turn a
// whole-program plan, a plan scoped to the tap's region (both landing
// exactly at that tap, under a budget of four plan-free runs) and a
// hang budget expiring at it. Each case runs once through the machine
// and once behind GenericSink; output, panic kind, tap counters and op
// matrix must agree. It returns how many cases it ran.
func CheckUnitSplit(t *testing.T, label string, kernel func(probe.Sink) string, units func([]Tap) [][2]int) int {
	t.Helper()
	log := NewTapLog()
	kernel(log)
	// Plans run under a hang budget, as campaign trials do, so a
	// corrupted loop bound ends instead of spinning.
	limit := 4 * log.M.Steps()
	cases := 0
	for u, r := range units(log.Taps) {
		for _, c := range []fault.Class{fault.GPR, fault.FPR} {
			first, last := -1, -1
			for i := r[0]; i < r[1]; i++ {
				if log.Taps[i].Class == c {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
			if first < 0 {
				continue
			}
			for _, i := range []int{first, last} {
				tap := log.Taps[i]
				global := tap.Before.For(c, fault.RAny)
				bit := []int{2, 33}[i%2]
				if c == fault.FPR {
					bit = []int{51, 62}[i%2]
				}
				for _, region := range []fault.Region{fault.RAny, tap.Region} {
					p := fault.Plan{Class: c, Reg: registerFor(c, global), Bit: bit,
						Site: tap.Before.For(c, region), Window: 1, Region: region}
					ref := fault.NewWithPlan(p, limit)
					want := RunKernel(ref, true, kernel)
					if !ref.Injected() {
						t.Fatalf("%s unit %d: plan %v at tap %d did not land", label, u, p, i)
					}
					if got := RunKernel(fault.NewWithPlan(p, limit), false, kernel); got != want {
						t.Errorf("%s unit %d: plan %v at tap %d (%c):\n split %+v\n   ref %+v", label, u, p, i, tap.Kind, got, want)
					}
					cases++
				}
				// A budget of s steps panics at the tap with s taps before
				// it (a budget of 0 means unlimited).
				budget := tap.Before.Steps
				if budget == 0 {
					continue
				}
				p := fault.Plan{Class: c, Site: 1 << 62, Window: 1, Region: fault.RAny}
				want := RunKernel(fault.NewWithPlan(p, budget), true, kernel)
				if got := RunKernel(fault.NewWithPlan(p, budget), false, kernel); got != want || want.Panic == "" {
					t.Errorf("%s unit %d: hang budget %d at tap %d:\n split %+v\n   ref %+v", label, u, budget, i, got, want)
				}
				cases++
			}
		}
	}
	return cases
}
