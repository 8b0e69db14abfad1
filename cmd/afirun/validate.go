package main

import (
	"errors"
	"fmt"

	"vsresil/internal/summarize"
	"vsresil/internal/vs"
)

// campaignMode is the cross-flag shape of one afirun invocation: which
// planner drives the campaign and where it executes. validate is the
// single home of the mutual-exclusion rules that used to be scattered
// across main()'s flag handling (the -stratified/-fabric conflict and
// the vs-only stratified restriction among them).
type campaignMode struct {
	Stratified bool    // -stratified: fixed per-stratum planner
	Adaptive   bool    // -adaptive: confidence-driven planner
	Fabric     string  // -fabric coordinator URL ("" = in process)
	Summarizer string  // -summarizer backend name
	Precision  float64 // -precision target half-width
	Confidence float64 // -confidence interval level
	TrialsSet  bool    // -trials was given explicitly on the command line
	ShardsSet  bool    // -shards was given explicitly on the command line
}

// validate enforces the planner/placement rules before any work runs.
func (m campaignMode) validate() error {
	if m.ShardsSet && m.Fabric == "" {
		return errors.New("-shards splits cluster rounds across workers; add -fabric or drop -shards")
	}
	if m.Stratified && m.Adaptive {
		return errors.New("-stratified and -adaptive select different planners; pick one")
	}
	if m.Stratified {
		if m.Fabric != "" {
			return errors.New("-stratified campaigns run in process; drop -fabric")
		}
		if !isVSSummarizer(m.Summarizer) {
			return fmt.Errorf("-stratified supports only the vs summarizer, not %s", m.Summarizer)
		}
	}
	if !m.Adaptive {
		if m.Precision != 0 {
			return errors.New("-precision is an adaptive-planner knob; add -adaptive")
		}
		if m.Confidence != 0 {
			return errors.New("-confidence is an adaptive-planner knob; add -adaptive")
		}
		return nil
	}
	if m.TrialsSet {
		return errors.New("-trials is the fixed-budget knob; adaptive campaigns size themselves — drop -trials or tune -precision/-confidence")
	}
	if m.Precision < 0 || m.Precision >= 0.5 {
		return fmt.Errorf("-precision %v outside (0, 0.5)", m.Precision)
	}
	if m.Confidence < 0 || m.Confidence >= 1 {
		return fmt.Errorf("-confidence %v outside (0, 1)", m.Confidence)
	}
	return nil
}

// isVSSummarizer reports whether name parses to the panorama-stitching
// vs backend — the only one the stratified region map covers.
func isVSSummarizer(name string) bool {
	s, err := summarize.Parse(name, vs.DefaultConfig(vs.AlgVS))
	if err != nil {
		return false
	}
	_, ok := s.(summarize.VS)
	return ok
}
