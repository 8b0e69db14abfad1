// Package summarize defines the pluggable summarizer seam of the
// workload matrix. The paper studies exactly one summarizer — the
// panorama-stitching VS pipeline of internal/vs — on one capture
// setting; this package lifts that choice into an interface so the
// fault-injection engine can ask whether the approximation-vs-SDC
// tradeoff generalizes across summarizer families (ROADMAP's "scenario
// matrix + pluggable summarizer backends").
//
// Two backends ship: the VS adapter (the paper's pipeline, all four
// approximation variants) and a storyboard keyframe summarizer in
// VideoSum's segment-scoring shape. Both expose the full campaign
// contract — a fault.App for one-shot runs and a fault.StagedApp so
// golden-prefix checkpointing, bucket batching, resume and the
// fabric carry over unchanged.
package summarize

import (
	"fmt"
	"strings"

	"vsresil/internal/fault"
	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stitch"
	"vsresil/internal/vs"
)

// Summarizer is one summarization backend, immutable after
// construction and safe to share across campaign workers.
type Summarizer interface {
	// Name is the backend's parser token ("vs", "storyboard").
	Name() string
	// Key is the canonical configuration fingerprint used in golden
	// cache keys: two summarizers with equal keys must produce
	// byte-identical output on identical input.
	Key() string
	// Bind fixes the input frames and returns the campaign views: the
	// one-shot fault.App and the stage-resumable fault.StagedApp.
	// Both views run the same computation — same taps, same bytes.
	Bind(frames []*imgproc.Gray) (fault.App, fault.StagedApp)
}

// Names lists the backend tokens Parse accepts.
func Names() []string { return []string{"vs", "storyboard"} }

// Parse maps a backend token (case-insensitively; "" defaults to the
// paper's VS pipeline) to a Summarizer. cfg carries the VS variant
// selection and the shared determinism seed; the storyboard backend
// uses only the seed.
func Parse(name string, cfg vs.Config) (Summarizer, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "vs":
		return VS{Cfg: cfg}, nil
	case "storyboard":
		// The storyboard is RNG-free; the VS config's variant and seed
		// axes do not apply to it.
		return DefaultStoryboard(), nil
	default:
		return nil, fmt.Errorf("summarize: unknown summarizer %q (want one of %s)",
			name, strings.Join(Names(), ", "))
	}
}

// VS adapts the paper's panorama-stitching pipeline (internal/vs) to
// the Summarizer seam. The algorithm axis (VS, VS_RFD, VS_KDS, VS_SM)
// lives inside its Config.
type VS struct {
	Cfg vs.Config
}

// Name implements Summarizer.
func (VS) Name() string { return "vs" }

// Key implements Summarizer. It matches the historical campaign
// workload key prefix so identity-scenario golden cache entries mean
// the same workload they always did.
func (v VS) Key() string {
	return fmt.Sprintf("vs:%s|seed=%d", v.Cfg.Algorithm, v.Cfg.Seed)
}

// Bind implements Summarizer: exactly vs.New + RunEncoded/Staged, the
// construction every call site used before the seam existed.
func (v VS) Bind(frames []*imgproc.Gray) (fault.App, fault.StagedApp) {
	app := vs.New(v.Cfg, len(frames))
	return app.RunEncoded(frames), app.Staged(frames)
}

// Run executes the summarizer once outside the fault machinery, under
// an arbitrary probe sink — the serving path cmd/vsrun and the vsd
// summarize job share. The result decodes the same way for every
// backend: a panorama set whose primary image is the summary.
func Run(sum Summarizer, frames []*imgproc.Gray, sink probe.Sink) (*stitch.Result, error) {
	switch s := sum.(type) {
	case VS:
		return vs.New(s.Cfg, len(frames)).Run(frames, sink)
	case Storyboard:
		return s.Run(frames, sink)
	default:
		return nil, fmt.Errorf("summarize: %s has no serving path", sum.Name())
	}
}
