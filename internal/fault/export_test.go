package fault

// RunTrialFull executes plan against app from tap zero with none of
// the campaign executor's shortcuts: no checkpoint resume, no bucket,
// no early mask, no window clip and no boundary convergence. Its
// verdict is what running the injected application to completion
// records, which makes it the reference the bucketed, clipped trials
// of a Session window are checked against.
func RunTrialFull(app App, golden *GoldenRun, plan Plan) Trial {
	e := &trialExec{
		budget:    golden.Steps * DefaultStepFactor,
		goldenOut: golden.Output,
		keepSDC:   true,
		app:       app,
		golden:    golden,
	}
	return e.run(plan, nil, -1, nil)
}

// WorkerCap returns the session's worker-pool cap, so tests can check
// the clamp without starting the workers.
func (s *Session) WorkerCap() int { return s.cap }
