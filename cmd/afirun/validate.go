package main

import (
	"errors"
	"fmt"

	"vsresil/internal/campaign"
	"vsresil/internal/summarize"
	"vsresil/internal/vs"
)

// campaignMode is one afirun invocation: the campaign request its
// flags describe, plus the flags that choose the planner and where the
// campaign executes. validate adds the cross-flag rules to the
// request's own validation (campaign.Request.Validate, which every
// surface shares).
type campaignMode struct {
	Req        campaign.Request // the campaign the flags describe
	Stratified bool             // -stratified: fixed per-stratum planner
	Fabric     string           // -fabric coordinator URL ("" = in process)
	TrialsSet  bool             // -trials was given explicitly on the command line
	ShardsSet  bool             // -shards was given explicitly on the command line
}

// validate enforces the planner/placement rules before any work runs.
func (m campaignMode) validate() error {
	if m.ShardsSet && m.Fabric == "" {
		return errors.New("-shards splits cluster rounds across workers; add -fabric or drop -shards")
	}
	if m.Stratified && m.Req.Adaptive {
		return errors.New("-stratified and -adaptive select different planners; pick one")
	}
	if m.Stratified {
		if m.Fabric != "" {
			return errors.New("-stratified campaigns run in process; drop -fabric")
		}
		if !isVSSummarizer(m.Req.Summarizer) {
			return fmt.Errorf("-stratified supports only the vs summarizer, not %s", m.Req.Summarizer)
		}
	}
	if m.Req.Adaptive && m.TrialsSet {
		return errors.New("-trials is the fixed-budget knob; adaptive campaigns size themselves — drop -trials or tune -precision/-confidence")
	}
	return m.Req.Validate()
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
