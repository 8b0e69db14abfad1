package main

import (
	"strings"
	"testing"

	"vsresil/internal/campaign"
)

func TestCampaignModeValidate(t *testing.T) {
	// mode builds the flags' request over afirun's defaults.
	mode := func(m campaignMode, edit func(*campaign.Request)) campaignMode {
		m.Req = campaign.Request{Summarizer: "vs", Trials: 1000}
		if edit != nil {
			edit(&m.Req)
		}
		return m
	}
	adaptive := func(precision, confidence float64) func(*campaign.Request) {
		return func(r *campaign.Request) { r.Adaptive, r.Precision, r.Confidence = true, precision, confidence }
	}
	storyboard := func(r *campaign.Request) { r.Summarizer = "storyboard" }
	cases := []struct {
		name string
		mode campaignMode
		want string // "" = valid; otherwise a substring of the error
	}{
		{"uniform default", mode(campaignMode{}, nil), ""},
		{"stratified in process", mode(campaignMode{Stratified: true}, nil), ""},
		{"stratified on fabric", mode(campaignMode{Stratified: true, Fabric: "http://coord"}, nil), "drop -fabric"},
		{"stratified non-vs summarizer", mode(campaignMode{Stratified: true}, storyboard), "only the vs summarizer"},
		{"both planners", mode(campaignMode{Stratified: true}, adaptive(0, 0)), "pick one"},
		{"adaptive in process", mode(campaignMode{}, adaptive(0.05, 0.95)), ""},
		{"adaptive defaults", mode(campaignMode{}, adaptive(0, 0)), ""},
		{"adaptive on fabric", mode(campaignMode{Fabric: "http://coord"}, adaptive(0.02, 0)), ""},
		{"shards on fabric", mode(campaignMode{Fabric: "http://coord", ShardsSet: true}, nil), ""},
		{"shards in process", mode(campaignMode{ShardsSet: true}, nil), "add -fabric"},
		{"adaptive shards in process", mode(campaignMode{ShardsSet: true}, adaptive(0, 0)), "add -fabric"},
		{"adaptive non-vs summarizer", mode(campaignMode{}, func(r *campaign.Request) {
			adaptive(0, 0)(r)
			storyboard(r)
		}), ""},
		{"explicit trials without adaptive", mode(campaignMode{TrialsSet: true}, nil), ""},
		{"explicit trials with adaptive", mode(campaignMode{TrialsSet: true}, adaptive(0, 0)), "drop -trials"},
		{"precision without adaptive", mode(campaignMode{}, func(r *campaign.Request) { r.Precision = 0.1 }), "adaptive knobs"},
		{"confidence without adaptive", mode(campaignMode{}, func(r *campaign.Request) { r.Confidence = 0.9 }), "adaptive knobs"},
		{"precision too wide", mode(campaignMode{}, adaptive(0.5, 0)), "outside [0, 0.5)"},
		{"precision negative", mode(campaignMode{}, adaptive(-0.01, 0)), "outside [0, 0.5)"},
		{"confidence at one", mode(campaignMode{}, adaptive(0, 1)), "outside [0, 1)"},
		{"confidence negative", mode(campaignMode{}, adaptive(0, -0.5)), "outside [0, 1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.mode.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate() = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestIsVSSummarizer(t *testing.T) {
	for name, want := range map[string]bool{
		"vs":         true,
		"":           true, // "" defaults to the paper's VS pipeline
		"storyboard": false,
		"nonsense":   false,
	} {
		if got := isVSSummarizer(name); got != want {
			t.Errorf("isVSSummarizer(%q) = %v, want %v", name, got, want)
		}
	}
}
