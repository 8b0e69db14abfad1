// Package vs assembles the end-to-end Video Summarization application
// the paper studies (§III), together with its three approximate
// variants (§IV):
//
//   - VS: the precise baseline (FAST+ORB, ratio-test matching, RANSAC
//     homography with affine fallback, mini-panorama stitching).
//   - VS_RFD: Random Frame Dropping — 10% of input frames are dropped
//     (input sampling).
//   - VS_KDS: Key Point Down Sampling — matching runs on one third of
//     the key points (selective computation).
//   - VS_SM: Simple Matching — single nearest neighbor under an
//     absolute distance bound instead of the 2-NN ratio test
//     (algorithmic transformation).
//
// An App is the unit the fault-injection campaign runs: one call of
// Run is one execution of the paper's application binary.
package vs

import (
	"fmt"
	"strings"
	"sync"

	"vsresil/internal/fault"
	"vsresil/internal/features"
	"vsresil/internal/imgproc"
	"vsresil/internal/match"
	"vsresil/internal/probe"
	"vsresil/internal/stats"
	"vsresil/internal/stitch"
	"vsresil/internal/warp"
)

// Algorithm identifies a VS variant.
type Algorithm uint8

// The paper's approximation variants, in its presentation order.
// These are the vs backend's algorithm axis; other summarizer
// backends (internal/summarize) have no variant axis.
const (
	AlgVS Algorithm = iota
	AlgRFD
	AlgKDS
	AlgSM
	NumAlgorithms
)

// String implements fmt.Stringer using the paper's names.
func (a Algorithm) String() string {
	switch a {
	case AlgVS:
		return "VS"
	case AlgRFD:
		return "VS_RFD"
	case AlgKDS:
		return "VS_KDS"
	case AlgSM:
		return "VS_SM"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Algorithms returns every variant of the vs backend in paper order.
// Iterate NumAlgorithms-agnostically; the count is not part of the
// contract now that summarizer backends are pluggable.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, NumAlgorithms)
	for a := Algorithm(0); a < NumAlgorithms; a++ {
		out = append(out, a)
	}
	return out
}

// ParseAlgorithm maps a paper name (case-insensitively) to a variant;
// "" defaults to the baseline VS. The CLIs and the vsd wire format
// share this parser.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return AlgVS, nil
	}
	for _, a := range Algorithms() {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("vs: unknown algorithm %q (want VS, VS_RFD, VS_KDS or VS_SM)", name)
}

// Config parameterizes an App.
type Config struct {
	Algorithm Algorithm
	// DropFraction is the VS_RFD input sampling rate (default 0.10,
	// the paper's "up to 10% of the input frames being dropped").
	DropFraction float64
	// KeyPointStride is the VS_KDS down-sampling stride (default 3:
	// "matching on a fraction (one-third) of the key points").
	KeyPointStride int
	// Seed fixes all stochastic choices (RFD frame selection, RANSAC
	// sampling) so golden and faulty runs differ only by the injected
	// bit.
	Seed uint64
	// Stitch optionally overrides the stitcher configuration; leave
	// zero for defaults.
	Stitch *stitch.Config
}

// DefaultConfig returns the standard configuration for an algorithm.
func DefaultConfig(a Algorithm) Config {
	return Config{Algorithm: a, DropFraction: 0.10, KeyPointStride: 3, Seed: 0x5EED}
}

// App is one configured VS application instance. It is immutable after
// construction and safe to share across campaign workers (each Run
// call uses only its own state).
type App struct {
	cfg      Config
	stitcher *stitch.Stitcher
	dropSet  map[int]bool // precomputed VS_RFD frame drops, by input index
	nFrames  int          // the input length dropSet was computed for (-1 = none)
}

// New builds an App for the given input length. The input length is
// needed up front because VS_RFD's dropped-frame set must be identical
// across the golden run and every injected run.
func New(cfg Config, nFrames int) *App {
	if cfg.DropFraction <= 0 || cfg.DropFraction >= 1 {
		cfg.DropFraction = 0.10
	}
	if cfg.KeyPointStride <= 1 {
		cfg.KeyPointStride = 3
	}

	scfg := stitch.DefaultConfig()
	if cfg.Stitch != nil {
		scfg = *cfg.Stitch
	}
	scfg.Seed = cfg.Seed
	switch cfg.Algorithm {
	case AlgKDS:
		scfg.KeyPointStride = cfg.KeyPointStride
	case AlgSM:
		scfg.Match = match.SimpleConfig()
	}

	app := &App{cfg: cfg, stitcher: stitch.New(scfg), nFrames: nFrames}
	if cfg.Algorithm == AlgRFD {
		app.dropSet = selectDrops(nFrames, cfg.DropFraction, cfg.Seed)
	}
	return app
}

// selectDrops picks the frames VS_RFD removes, deterministically in
// the seed. Frame 0 is never dropped (it anchors the first segment).
func selectDrops(n int, frac float64, seed uint64) map[int]bool {
	drops := make(map[int]bool)
	if n <= 1 {
		return drops
	}
	k := int(float64(n) * frac)
	if k > n-1 {
		k = n - 1
	}
	r := stats.NewRNG(seed*0x9e3779b97f4a7c15 + 17)
	for len(drops) < k {
		i := 1 + r.Intn(n-1)
		drops[i] = true
	}
	return drops
}

// Config returns the app's configuration.
func (a *App) Config() Config { return a.cfg }

// Dropped returns how many input frames VS_RFD removes for the
// configured input length.
func (a *App) Dropped() int { return len(a.dropSet) }

// Run executes the application on the input frames. The frame slice
// must have the length passed to New. s is any probe.Sink: a
// *fault.Machine for injection campaigns, a *probe.Meter for metered
// serving runs, or probe.Nop{} for the uninstrumented fast path (nil
// is normalized to Nop).
//
// Run first "decodes" the input (copying each retained frame through
// instrumented pixel traffic, the analogue of the video decode and
// downsampling stage) and then stitches.
func (a *App) Run(frames []*imgproc.Gray, s probe.Sink) (*stitch.Result, error) {
	if a.nFrames >= 0 && len(frames) != a.nFrames {
		return nil, fmt.Errorf("vs: got %d frames, configured for %d", len(frames), a.nFrames)
	}
	res, _, err := a.runFrom(pipeState{phase: phaseDecode}, frames, probe.OrNop(s), nil, nil)
	return res, err
}

// Pipeline phases, in execution order. A pipeState snapshot taken at
// phase p with its progress counters is exactly the state a resumed
// run needs to execute everything from p onward. phaseDecode sits below
// zero so that a pipeState holding freshly decoded frames needs no
// explicit phase.
const (
	phaseDecode    int8 = iota - 1 // input decode (nothing produced yet)
	phaseFeatures                  // per-frame FAST+ORB detection
	phasePairs                     // pairwise registration (match + RANSAC)
	phaseComposite                 // warp + blend onto mini-panoramas
)

// pipeState is the pipeline's resumable state between stages: which
// phase comes next and everything earlier stages produced. It is
// copyable by design — golden checkpoints retain value snapshots, and
// resumed trials run on plain copies whose slice appends never touch
// the shared snapshot (see snapshot).
type pipeState struct {
	phase    int8
	featDone int // frames whose features are already detected
	frames   []*imgproc.Gray
	feats    []stitch.FrameFeatures
	align    stitch.AlignState
	comp     stitch.CompositeState
	// golden is the golden run's records, shared read-only by every
	// state snapshotted from it; StateEqual ignores it.
	golden *goldenRecords
}

// goldenRecords is the golden run's record set, which the capture
// fills as a by-product of its own stages: the feature stage, one
// record per decoded frame, and the RANSAC searches, one record per
// frame pair and model. A later detection replays a feature record
// only on the very frame it was captured on (pointer identity): a trial
// that decoded frames of its own, possibly corrupted ones, never reads
// one. A search replays its record only on the golden search's inputs
// (stitch.GoldenSearches), and only a capture on a tapping sink
// records searches.
type goldenRecords struct {
	frames   []*imgproc.Gray
	recs     []*features.Golden
	searches *stitch.GoldenSearches
}

// record returns frame k's golden record when f is the golden run's
// frame k, and nil otherwise.
func (gf *goldenRecords) record(k int, f *imgproc.Gray) *features.Golden {
	if gf == nil || k >= len(gf.recs) || gf.frames[k] != f {
		return nil
	}
	return gf.recs[k]
}

// searchRecords returns the golden search records, or nil.
func (gf *goldenRecords) searchRecords() *stitch.GoldenSearches {
	if gf == nil {
		return nil
	}
	return gf.searches
}

// snapshot returns a copy safe to retain across further pipeline
// progress: slice prefixes are capped so any later append — by the
// live golden run or by a trial resumed from the snapshot — allocates
// instead of sharing a tail, and a composite canvas in progress is
// encoded compactly. Frames and per-frame features are read-only once
// produced, so sharing their storage is safe.
func (st pipeState) snapshot() pipeState {
	st.frames = st.frames[:len(st.frames):len(st.frames)]
	st.feats = st.feats[:len(st.feats):len(st.feats)]
	st.align = st.align.Snapshot()
	st.comp = st.comp.Snapshot()
	return st
}

// runFrom executes the pipeline from st onward on the input frames:
// decode (when st is the tap-zero state), the remaining per-frame
// feature detection, the registration pass, then compositing.
//
// Every stage boundary the run reaches — the one st sits at first —
// is reported before its first tap: to snap, when non-nil, with a
// snapshot (the golden checkpoint capture, whose detections and, on a
// tapping sink, RANSAC searches also collect the golden records every
// snapshot shares), and to
// guard, when non-nil, with a pointer to the live state; a true guard
// return abandons the run with converged=true, recycling the pair and
// canvas buffers the run owns. Neither hook changes a single tap of the
// stages that do execute.
//
// Frames this run decoded itself are recycled into the frame pool once
// it finishes or converges, unless snap retains them; frames of a
// resumed state belong to the golden checkpoint and are never
// recycled.
func (a *App) runFrom(st pipeState, input []*imgproc.Gray, m probe.Sink, snap func(name string, st pipeState), guard fault.BoundaryGuard) (*stitch.Result, bool, error) {
	recycle := st.phase == phaseDecode && snap == nil
	if snap != nil {
		st.golden = &goldenRecords{searches: stitch.NewGoldenSearches()}
		// However the capture ends, its trials only ever replay.
		defer st.golden.searches.Close()
	}
	boundary := func(name string) bool {
		if snap != nil {
			snap(name, st.snapshot())
		}
		if guard == nil || !guard(name, &st) {
			return false
		}
		st.align.Release()
		st.comp.Release()
		if recycle {
			recycleFrames(st.frames)
		}
		return true
	}
	if st.phase == phaseDecode {
		if boundary("decode") {
			return nil, true, nil
		}
		frames, err := decodeSink(a, input, m)
		if err != nil {
			return nil, false, err
		}
		st = pipeState{frames: frames, golden: st.golden}
		if snap != nil {
			st.golden.frames = frames
		}
	}
	if st.phase == phaseFeatures {
		if len(st.frames) == 0 {
			return nil, false, stitch.ErrNoFrames
		}
		if st.feats == nil {
			st.feats = make([]stitch.FrameFeatures, 0, len(st.frames))
		}
		for st.featDone < len(st.frames) {
			if boundary(fmt.Sprintf("features[%d]", st.featDone)) {
				return nil, true, nil
			}
			k := st.featDone
			if snap != nil {
				f, rec := a.stitcher.CaptureFrame(st.frames[k], m)
				st.feats = append(st.feats, f)
				st.golden.recs = append(st.golden.recs, rec)
			} else {
				st.feats = append(st.feats, a.stitcher.DetectFrame(st.frames[k], m, st.golden.record(k, st.frames[k])))
			}
			st.featDone++
		}
		if boundary("align") {
			return nil, true, nil
		}
		st.align = a.stitcher.BeginAlign(st.frames, m)
		st.phase = phasePairs
	}
	if st.phase == phasePairs {
		gs := st.golden.searchRecords()
		for st.align.Next < st.align.N {
			if a.stitcher.AlignStep(st.feats, &st.align, gs, boundary, m) {
				return nil, true, nil
			}
		}
		st.comp = a.stitcher.BeginComposite(st.frames, &st.align)
		st.phase = phaseComposite
	}
	res, converged, err := a.stitcher.CompositeSteps(st.frames, &st.align, &st.comp, boundary, m)
	// The stitch result references only freshly rendered panoramas,
	// never the decoded frames, so their buffers can feed the next
	// trial's decode. (A crashed trial unwinds past this and simply
	// leaves its frames to the GC.)
	if recycle && !converged {
		recycleFrames(st.frames)
	}
	return res, converged, err
}

// recycleFrames returns a run's decoded frames to the frame pool.
func recycleFrames(frames []*imgproc.Gray) {
	for _, f := range frames {
		putFrame(f)
	}
}

// framePool recycles decoded frame buffers across Run calls — the
// decode stage re-copies every input frame each trial, which would
// otherwise be a per-trial allocation proportional to the input size.
var framePool sync.Pool

// maxPooledFramePixels keeps a corrupted-width giant out of the pool.
const maxPooledFramePixels = 1 << 22

// getFrame returns a w x h frame, reusing pooled storage when the
// requested size is sane. The contents are arbitrary — decode
// overwrites (or explicitly zeroes) every byte — and the dimensions
// may be fault-corrupted, in which case allocation falls through to
// imgproc.NewGray to reproduce its exact panic/allocation behavior.
func getFrame(w, h int) *imgproc.Gray {
	if w >= 0 && h >= 0 {
		if n := w * h; n >= 0 && n <= maxPooledFramePixels {
			if v, _ := framePool.Get().(*imgproc.Gray); v != nil && cap(v.Pix) >= n {
				v.W, v.H = w, h
				v.Pix = v.Pix[:n]
				return v
			}
		}
	}
	return imgproc.NewGray(w, h)
}

// putFrame recycles a frame obtained from getFrame.
func putFrame(g *imgproc.Gray) {
	if g == nil || cap(g.Pix) == 0 || cap(g.Pix) > maxPooledFramePixels {
		return
	}
	framePool.Put(g)
}

// RunEncoded is the fault.App adapter: it runs the application and
// returns the serialized panorama set.
func (a *App) RunEncoded(frames []*imgproc.Gray) fault.App {
	return func(m *fault.Machine) ([]byte, error) {
		res, err := a.Run(frames, m)
		if err != nil {
			return nil, err
		}
		return res.Encode(), nil
	}
}

// decodeSink runs decode on the kernel instantiation for s: the
// tap-free one for probe.Nop, the instrumented one (which calls every
// tap through the interface) for any other sink.
func decodeSink(a *App, frames []*imgproc.Gray, s probe.Sink) ([]*imgproc.Gray, error) {
	if probe.IsNop(s) {
		return decode(a, frames, probe.Nop{})
	}
	return decode(a, frames, s)
}

// decode copies the retained input frames into run-private buffers,
// passing a sample of the pixel traffic through sink taps. Corrupted
// writes land only in the private copy, exactly like a decoder writing
// a corrupted frame buffer.
func decode[S probe.Sink](a *App, frames []*imgproc.Gray, m S) ([]*imgproc.Gray, error) {
	defer m.Enter(probe.RDecode)()
	out := make([]*imgproc.Gray, 0, len(frames))
	n := m.Cnt(len(frames))
	if n < 0 || n > len(frames) {
		return nil, fmt.Errorf("vs: corrupted frame count %d", n)
	}
	for i := 0; i < n; i++ {
		if a.dropSet[i] {
			continue // VS_RFD input sampling
		}
		src := frames[m.Idx(i)]
		w := m.Idx(src.W)
		h := src.H
		// A negative corrupted width falls through to imgproc.NewGray's
		// panic (a recoverable crash), but a high-bit flip makes a huge
		// positive width whose allocation is a fatal runtime OOM — bound
		// it like the warp canvas guard. Divide instead of multiplying
		// so a near-MaxInt width cannot overflow past the check.
		if h > 0 && w > warp.MaxCanvasPixels/h {
			return nil, fmt.Errorf("vs: corrupted frame width %d", w)
		}
		dst := getFrame(w, h)
		n := copy(dst.Pix, src.Pix)
		// A recycled buffer holds the previous trial's pixels; zero
		// whatever the copy did not cover (normally nothing — only a
		// corrupted width makes dst larger than src) so the frame is
		// byte-identical to a fresh NewGray + copy.
		for j := n; j < len(dst.Pix); j++ {
			dst.Pix[j] = 0
		}
		// Instrument a strided sample of the pixel stream (tapping
		// every byte would dominate the tap space; the decode stage is
		// a small share of the paper's profile, Fig 8).
		for j := 0; j < len(dst.Pix); j += 97 {
			idx := m.Idx(j)
			dst.Pix[idx] = m.Pix(dst.Pix[idx])
		}
		// Representative video-decode arithmetic (entropy decoding,
		// inverse transform, motion compensation): the non-library
		// share of the paper's Fig 8 profile is dominated by this
		// stage in the original application.
		px := uint64(len(dst.Pix))
		m.Ops(probe.OpInt, px*14)
		m.Ops(probe.OpLoad, px*6)
		m.Ops(probe.OpStore, px*4)
		m.Ops(probe.OpBranch, px*3)
		out = append(out, dst)
	}
	return out, nil
}
