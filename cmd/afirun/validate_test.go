package main

import (
	"strings"
	"testing"
)

func TestCampaignModeValidate(t *testing.T) {
	cases := []struct {
		name string
		mode campaignMode
		want string // "" = valid; otherwise a substring of the error
	}{
		{"uniform default", campaignMode{Summarizer: "vs"}, ""},
		{"stratified in process", campaignMode{Stratified: true, Summarizer: "vs"}, ""},
		{"stratified on fabric", campaignMode{Stratified: true, Summarizer: "vs", Fabric: "http://coord"}, "drop -fabric"},
		{"stratified non-vs summarizer", campaignMode{Stratified: true, Summarizer: "storyboard"}, "only the vs summarizer"},
		{"both planners", campaignMode{Stratified: true, Adaptive: true, Summarizer: "vs"}, "pick one"},
		{"adaptive in process", campaignMode{Adaptive: true, Summarizer: "vs", Precision: 0.05, Confidence: 0.95}, ""},
		{"adaptive defaults", campaignMode{Adaptive: true, Summarizer: "vs"}, ""},
		{"adaptive on fabric", campaignMode{Adaptive: true, Summarizer: "vs", Fabric: "http://coord", Precision: 0.02}, ""},
		{"shards on fabric", campaignMode{Summarizer: "vs", Fabric: "http://coord", ShardsSet: true}, ""},
		{"shards in process", campaignMode{Summarizer: "vs", ShardsSet: true}, "add -fabric"},
		{"adaptive shards in process", campaignMode{Adaptive: true, Summarizer: "vs", ShardsSet: true}, "add -fabric"},
		{"adaptive non-vs summarizer", campaignMode{Adaptive: true, Summarizer: "storyboard"}, ""},
		{"explicit trials without adaptive", campaignMode{Summarizer: "vs", TrialsSet: true}, ""},
		{"explicit trials with adaptive", campaignMode{Adaptive: true, Summarizer: "vs", TrialsSet: true}, "drop -trials"},
		{"precision without adaptive", campaignMode{Summarizer: "vs", Precision: 0.1}, "add -adaptive"},
		{"confidence without adaptive", campaignMode{Summarizer: "vs", Confidence: 0.9}, "add -adaptive"},
		{"precision too wide", campaignMode{Adaptive: true, Summarizer: "vs", Precision: 0.5}, "outside (0, 0.5)"},
		{"precision negative", campaignMode{Adaptive: true, Summarizer: "vs", Precision: -0.01}, "outside (0, 0.5)"},
		{"confidence at one", campaignMode{Adaptive: true, Summarizer: "vs", Confidence: 1}, "outside (0, 1)"},
		{"confidence negative", campaignMode{Adaptive: true, Summarizer: "vs", Confidence: -0.5}, "outside (0, 1)"},
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
