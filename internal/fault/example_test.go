package fault_test

import (
	"fmt"

	"vsresil/internal/fault"
)

// ExampleGoldenRun_Taps shows how a golden capture sizes the
// injection-site space a campaign draws plans from: per class for
// whole-program campaigns, per class and region for function-scoped
// ones (the Fig 11b hot-function study).
func ExampleGoldenRun_Taps() {
	app := func(m *fault.Machine) ([]byte, error) {
		done := m.Enter(fault.RFASTDetect)
		for i := 0; i < 5; i++ {
			m.Idx(i) // five GPR-class taps inside the detector
		}
		done()
		m.F64(0.5) // one FPR-class tap in the app region
		return []byte("out"), nil
	}
	g, err := fault.CaptureGolden(app)
	if err != nil {
		panic(err)
	}
	fmt.Println("GPR sites:", g.Taps(fault.GPR, fault.RAny))
	fmt.Println("FPR sites:", g.Taps(fault.FPR, fault.RAny))
	fmt.Println("detector GPR sites:", g.Taps(fault.GPR, fault.RFASTDetect))
	fmt.Println("detector FPR sites:", g.Taps(fault.FPR, fault.RFASTDetect))
	// Output:
	// GPR sites: 5
	// FPR sites: 1
	// detector GPR sites: 5
	// detector FPR sites: 0
}

// ExampleGoldenRun_CheckpointIndexFor shows plan bucketing for
// golden-prefix skipping: a staged capture records tap counters at each
// stage boundary, and CheckpointIndexFor picks the last boundary a plan's
// injection site has not yet passed — the point a trial can safely
// resume from instead of re-executing its fault-free prefix.
func ExampleGoldenRun_CheckpointIndexFor() {
	staged := stagedFunc(func(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
		for i := 0; i < 10; i++ {
			m.Idx(i) // stage one: ten GPR taps
		}
		if snap != nil {
			snap("stage-two", nil)
		}
		for i := 0; i < 5; i++ {
			m.Idx(i) // stage two: five more
		}
		return []byte("out"), nil
	})
	g, err := fault.CaptureGoldenStaged(staged)
	if err != nil {
		panic(err)
	}
	early := fault.Plan{Class: fault.GPR, Region: fault.RAny, Site: 3}
	late := fault.Plan{Class: fault.GPR, Region: fault.RAny, Site: 12}
	fmt.Println("site 3 resumes from:", name(g, early))
	fmt.Println("site 12 resumes from:", name(g, late))
	fmt.Println("boundary GPR counter:", g.Checkpoints[g.CheckpointIndexFor(late)].Counters.For(fault.GPR, fault.RAny))
	// Output:
	// site 3 resumes from: the start (full run)
	// site 12 resumes from: stage-two
	// boundary GPR counter: 10
}

// stagedFunc adapts a function to fault.StagedApp for examples; Resume
// just re-enters the suffix (this toy's only boundary state is nil).
type stagedFunc func(m *fault.Machine, snap func(name string, state any)) ([]byte, error)

func (f stagedFunc) RunFull(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
	return f(m, snap)
}

func (f stagedFunc) Resume(m *fault.Machine, state any) ([]byte, error) {
	out := make([]byte, 0)
	for i := 0; i < 5; i++ {
		m.Idx(i)
	}
	return append(out, "out"...), nil
}

// name labels the boundary a trial of plan p resumes from.
func name(g *fault.GoldenRun, p fault.Plan) string {
	i := g.CheckpointIndexFor(p)
	if i < 0 {
		return "the start (full run)"
	}
	return g.Checkpoints[i].Name
}
