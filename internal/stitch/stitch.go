// Package stitch implements the VS algorithm's coverage-summarization
// core (§III-A): successive frames are pairwise registered via
// FAST+ORB key points, matched descriptors and a RANSAC homography
// (with the paper's affine fallback when too few matches exist, and
// frame discard when even the affine cannot be computed). Every frame
// is aligned to the first frame of its segment and composited onto a
// mini-panorama; hard registration breaks (scene changes) start new
// mini-panoramas.
package stitch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"vsresil/internal/features"
	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/match"
	"vsresil/internal/probe"
	"vsresil/internal/ransac"
	"vsresil/internal/warp"
)

// FrameStatus records how a frame was incorporated.
type FrameStatus uint8

// Frame dispositions, in the order the paper describes them: full
// homography, affine fallback, discarded, or the start of a new
// segment.
const (
	StatusHomography FrameStatus = iota
	StatusAffine
	StatusDiscarded
	StatusNewSegment
)

// String implements fmt.Stringer.
func (s FrameStatus) String() string {
	switch s {
	case StatusHomography:
		return "homography"
	case StatusAffine:
		return "affine"
	case StatusDiscarded:
		return "discarded"
	case StatusNewSegment:
		return "new-segment"
	default:
		return "unknown"
	}
}

// Config parameterizes the stitcher. The three approximation knobs of
// the paper map to: KeyPointStride (VS_KDS), Match.Strategy
// (VS_SM), and frame dropping applied by the caller (VS_RFD).
type Config struct {
	FAST features.FASTConfig
	ORB  features.ORBConfig
	// Match configures descriptor matching (RatioTest for baseline,
	// SimpleNearest for VS_SM).
	Match match.Config
	// KeyPointStride > 1 enables VS_KDS: matching runs on every
	// stride-th key point.
	KeyPointStride int
	// MinMatchesHomography is the absolute floor on the match count
	// needed to attempt a homography (default 8).
	MinMatchesHomography int
	// MinMatchesAffine is the absolute floor for the affine fallback
	// (default 6).
	MinMatchesAffine int
	// MinMatchFractionHomography is the required ratio of matches to
	// query key points for a homography — the registration-confidence
	// gate (default 0.14). The effective gate per pair is
	// max(floor, fraction*queryKeyPoints). A relative gate keeps the
	// behavior scale-free: a down-sampled key-point set (VS_KDS) is
	// judged against its own size, as a confidence measure would be.
	MinMatchFractionHomography float64
	// MinMatchFractionAffine is the confidence gate for the affine
	// fallback (default 0.12).
	MinMatchFractionAffine float64
	// CutThreshold is the number of consecutive registration failures
	// that starts a new mini-panorama (default 3).
	CutThreshold int
	// Seed drives RANSAC sampling.
	Seed uint64
	// MaxPanoramaPixels caps each mini-panorama canvas; transforms
	// that would exceed it are treated as registration failures
	// (default 1<<22).
	MaxPanoramaPixels int
	// Blend selects the canvas compositing mode. The zero value
	// (BlendOverwrite) is the paper-faithful mosaicking behavior;
	// BlendFeather averages overlapping frames (see DESIGN.md §4b).
	Blend warp.BlendMode
	// ExposureCompensation scales each frame's intensity to match the
	// panorama content it overlaps before compositing (seam
	// reduction; off by default).
	ExposureCompensation bool
}

// DefaultConfig returns the baseline (precise) VS configuration.
func DefaultConfig() Config {
	return Config{
		FAST:                       features.DefaultFASTConfig(),
		ORB:                        features.ORBConfig{PatchRadius: 12, AngleBins: 30},
		Match:                      match.DefaultConfig(),
		KeyPointStride:             1,
		MinMatchesHomography:       8,
		MinMatchesAffine:           6,
		MinMatchFractionHomography: 0.26,
		MinMatchFractionAffine:     0.22,
		CutThreshold:               3,
		MaxPanoramaPixels:          1 << 22,
	}
}

// FrameReport records the disposition of one input frame.
type FrameReport struct {
	Index   int
	Status  FrameStatus
	Matches int
	Inliers int
	// H maps the frame into its segment's panorama coordinates (valid
	// unless Status == StatusDiscarded).
	H geom.Homography
	// Segment is the mini-panorama index the frame belongs to.
	Segment int
}

// Panorama is one rendered mini-panorama.
type Panorama struct {
	Image  *imgproc.Gray
	Bounds warp.Bounds
	// Frames is the number of frames composited into this panorama.
	Frames int
}

// Result is the output of a stitching run.
type Result struct {
	Panoramas []*Panorama
	Reports   []FrameReport
	// Discarded counts frames dropped for insufficient matches.
	Discarded int
}

// Primary returns the mini-panorama built from the most frames (the
// representative output image the paper's quality metric compares),
// or nil if nothing was stitched.
func (r *Result) Primary() *Panorama {
	var best *Panorama
	for _, p := range r.Panoramas {
		if best == nil || p.Frames > best.Frames {
			best = p
		}
	}
	return best
}

// Encode serializes every panorama (count, dimensions, pixels) — the
// output artifact AFI's result check byte-compares.
func (r *Result) Encode() []byte {
	var size int
	for _, p := range r.Panoramas {
		size += 16 + len(p.Image.Pix)
	}
	out := make([]byte, 0, 4+size)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(r.Panoramas)))
	out = append(out, hdr[:]...)
	for _, p := range r.Panoramas {
		var dims [16]byte
		binary.LittleEndian.PutUint32(dims[0:], uint32(p.Image.W))
		binary.LittleEndian.PutUint32(dims[4:], uint32(p.Image.H))
		binary.LittleEndian.PutUint32(dims[8:], uint32(int32(p.Bounds.MinX)))
		binary.LittleEndian.PutUint32(dims[12:], uint32(int32(p.Bounds.MinY)))
		out = append(out, dims[:]...)
		out = append(out, p.Image.Pix...)
	}
	return out
}

// ErrNoFrames is returned when the input holds no frames.
var ErrNoFrames = errors.New("stitch: no input frames")

// Stitcher runs the registration + compositing pipeline.
type Stitcher struct {
	cfg       Config
	extractor *features.Extractor
	matcher   *match.Matcher
}

// New builds a Stitcher, applying defaults for zero-valued knobs.
func New(cfg Config) *Stitcher {
	def := DefaultConfig()
	if cfg.MinMatchesHomography <= 0 {
		cfg.MinMatchesHomography = def.MinMatchesHomography
	}
	if cfg.MinMatchesAffine <= 0 {
		cfg.MinMatchesAffine = def.MinMatchesAffine
	}
	if cfg.MinMatchFractionHomography <= 0 {
		cfg.MinMatchFractionHomography = def.MinMatchFractionHomography
	}
	if cfg.MinMatchFractionAffine <= 0 {
		cfg.MinMatchFractionAffine = def.MinMatchFractionAffine
	}
	if cfg.CutThreshold <= 0 {
		cfg.CutThreshold = def.CutThreshold
	}
	if cfg.KeyPointStride <= 0 {
		cfg.KeyPointStride = 1
	}
	if cfg.MaxPanoramaPixels <= 0 {
		cfg.MaxPanoramaPixels = def.MaxPanoramaPixels
	}
	if cfg.FAST.Threshold == 0 {
		cfg.FAST = def.FAST
	}
	if cfg.ORB.PatchRadius == 0 {
		cfg.ORB = def.ORB
	}
	return &Stitcher{
		cfg:       cfg,
		extractor: features.NewExtractor(cfg.ORB),
		matcher:   match.New(cfg.Match),
	}
}

// Config returns the stitcher's effective configuration.
func (st *Stitcher) Config() Config { return st.cfg }

// FrameFeatures holds one frame's detected key points and ORB
// descriptors — the per-frame output of the feature stage, read-only
// once built (registration only consumes it), which is what lets
// golden checkpoints share it across resumed campaign trials.
type FrameFeatures struct {
	KPs   []features.KeyPoint
	Descs []features.Descriptor
}

// registration is the transform of a frame into segment coordinates.
type registration struct {
	frame   int
	segment int
	h       geom.Homography
}

// AlignState is the registration pass's loop state between frame
// pairs. It is a value type deliberately: a golden checkpoint captures
// it with Snapshot, and a resumed trial continues from a plain copy —
// appends in the copy allocate fresh storage, so the shared golden
// snapshot is never mutated.
type AlignState struct {
	// N is the (tapped, hence possibly fault-corrupted) frame count
	// bounding the pass; Next is the frame index the next AlignStep
	// registers. The pass is finished when Next >= N.
	N, Next int

	segment      int
	refFrame     int
	refToSegment geom.Homography
	failStreak   int
	regs         []registration
	reports      []FrameReport
	discarded    int
}

// Snapshot returns a copy safe to retain while the receiver keeps
// advancing: the slice prefixes are capped at their current length, so
// both the live state and any state resumed from the snapshot append
// into fresh storage instead of sharing a tail.
func (a AlignState) Snapshot() AlignState {
	a.regs = a.regs[:len(a.regs):len(a.regs)]
	a.reports = a.reports[:len(a.reports):len(a.reports)]
	return a
}

// DetectFrame runs the per-frame feature stage (FAST detection + ORB
// description) — the unit the pipeline checkpoints between frames.
func (st *Stitcher) DetectFrame(g *imgproc.Gray, m probe.Sink) FrameFeatures {
	m = probe.OrNop(m)
	kps := features.DetectFAST(g, st.cfg.FAST, m)
	kps, descs := st.extractor.Describe(g, kps, m)
	return FrameFeatures{KPs: kps, Descs: descs}
}

// BeginAlign starts the registration pass: frame 0 anchors segment 0
// with the identity transform, and the frame count crosses the tap
// seam (bound corruption is how injected faults reach this stage).
func (st *Stitcher) BeginAlign(frames []*imgproc.Gray, m probe.Sink) AlignState {
	m = probe.OrNop(m)
	a := AlignState{Next: 1, refToSegment: geom.Identity()}
	a.regs = append(a.regs, registration{frame: 0, segment: 0, h: geom.Identity()})
	a.reports = append(a.reports, FrameReport{Index: 0, Status: StatusNewSegment, H: geom.Identity()})
	a.N = m.Cnt(len(frames))
	return a
}

// AlignStep registers frame a.Next against the current reference frame
// (matching + RANSAC homography with affine fallback) and advances the
// state by one frame — the per-pair unit the pipeline checkpoints.
func (st *Stitcher) AlignStep(feats []FrameFeatures, a *AlignState, m probe.Sink) {
	m = probe.OrNop(m)
	i := a.Next
	a.Next++
	rep := FrameReport{Index: i, Segment: a.segment}
	h, status, matches, inliers := st.registerPair(&feats[i], &feats[a.refFrame], m)
	rep.Matches = matches
	rep.Inliers = inliers
	if status == StatusDiscarded {
		a.failStreak++
		a.discarded++
		rep.Status = StatusDiscarded
		if a.failStreak >= st.cfg.CutThreshold {
			// Scene change: start a new mini-panorama at this frame.
			a.segment++
			a.refFrame = i
			a.refToSegment = geom.Identity()
			a.failStreak = 0
			rep.Status = StatusNewSegment
			rep.Segment = a.segment
			rep.H = geom.Identity()
			a.regs = append(a.regs, registration{frame: i, segment: a.segment, h: geom.Identity()})
		}
		a.reports = append(a.reports, rep)
		return
	}
	a.failStreak = 0
	// Compose: frame -> ref -> segment origin.
	toSegment := a.refToSegment.Mul(h)
	if !toSegment.Reasonable(0.2, 5) {
		a.discarded++
		rep.Status = StatusDiscarded
		a.reports = append(a.reports, rep)
		return
	}
	rep.Status = status
	rep.H = toSegment
	a.reports = append(a.reports, rep)
	a.regs = append(a.regs, registration{frame: i, segment: a.segment, h: toSegment})
	a.refFrame = i
	a.refToSegment = toSegment
}

// Composite renders each segment's mini-panorama from the completed
// registration state and assembles the Result. It reads the state
// without mutating it, so a shared golden AlignState snapshot can feed
// many resumed trials.
func (st *Stitcher) Composite(frames []*imgproc.Gray, a *AlignState, m probe.Sink) (*Result, error) {
	c := st.BeginComposite(frames, a)
	res, _, err := st.CompositeSteps(frames, a, &c, nil, m)
	return res, err
}

// CompositePlan is the tap-free geometry of a composite pass: each
// segment's canvas bounds and frame count. It is a pure function of
// the registration state and the frame dimensions — values no
// composite tap can perturb (warps write only canvas buffers) — so the
// plan a golden run computes once is valid verbatim for every trial
// resumed inside its composite.
type CompositePlan struct {
	segs []segmentPlan
}

type segmentPlan struct {
	b     warp.Bounds
	count int
}

// planComposite computes each segment's canvas plan from the
// registration state. It issues no taps.
func planComposite(frames []*imgproc.Gray, a *AlignState) *CompositePlan {
	plan := &CompositePlan{segs: make([]segmentPlan, a.segment+1)}
	for _, r := range a.regs {
		if r.segment < 0 || r.segment > a.segment {
			continue
		}
		sp := &plan.segs[r.segment]
		fb := warp.ProjectBounds(r.h, frames[r.frame].W, frames[r.frame].H)
		sp.b = sp.b.Union(fb)
		sp.count++
	}
	return plan
}

// CompositeEvery is k, the spacing of the composite's interior
// boundaries: CompositeSteps places one before every k-th warp of a
// segment (its first warp included, except the pass's very first,
// which the "composite" boundary already precedes). k = 1 would let a
// trial converge after every frame, but each boundary costs the golden
// run one compact canvas snapshot; k = 2 is the smallest spacing that
// keeps every benchmark workload's live heap within 10% of the atomic
// composite's (DESIGN §11.1).
const CompositeEvery = 2

// CompositeState is the composite pass's loop state between frame
// warps. Like AlignState it is a value type: a golden checkpoint keeps
// a Snapshot, and a resumed trial continues from a plain copy. A live
// state owns its canvas; a snapshot holds the canvas in compact form
// instead and is never mutated by the runs resumed from it.
type CompositeState struct {
	plan *CompositePlan
	// seg is the segment being composited and next the index of the
	// next registration to consider for it; placed counts the warps
	// already composited onto seg's canvas.
	seg, next, placed int
	canvas            *warp.Canvas         // live canvas of seg (nil between segments)
	saved             *warp.CanvasSnapshot // compact canvas of a snapshot
	panos             []*Panorama          // finished mini-panoramas
}

// BeginComposite starts the composite pass over the completed
// registration state. It issues no taps.
func (st *Stitcher) BeginComposite(frames []*imgproc.Gray, a *AlignState) CompositeState {
	return CompositeState{plan: planComposite(frames, a)}
}

// Snapshot returns a copy safe to retain while the receiver keeps
// advancing: a live canvas is encoded compactly (only interior
// boundaries hold one, and they exist only for compact canvases), and
// the panorama list is capped so later appends allocate.
func (c CompositeState) Snapshot() CompositeState {
	if c.canvas != nil {
		c.saved, c.canvas = c.canvas.Snapshot(), nil
	}
	c.panos = c.panos[:len(c.panos):len(c.panos)]
	return c
}

// Release recycles a live state's canvas buffers, for a run abandoned
// at a boundary. The state must not be advanced afterwards.
func (c *CompositeState) Release() {
	if c.canvas != nil {
		c.canvas.Recycle()
		c.canvas = nil
	}
}

// CompositeSteps runs the composite pass from c onward — the one
// composite loop, behind Composite and every campaign run — and
// returns the Result. When boundary is non-nil it is called with the
// boundary's name at the pass's start ("composite") and, for compact
// canvases (overwrite blending without exposure compensation), before
// every CompositeEvery-th warp of a segment ("composite[i]", i the
// registration index about to be warped); a true return abandons the
// pass with converged=true. Feather and gain-compensated canvases hold
// state no snapshot encodes compactly, so their pass has no interior
// boundary: the decision depends only on the configuration, never on
// the run. Boundaries issue no taps. A state resumed from a snapshot
// restores its canvas before its first warp.
func (st *Stitcher) CompositeSteps(frames []*imgproc.Gray, a *AlignState, c *CompositeState, boundary func(name string) bool, m probe.Sink) (res *Result, converged bool, err error) {
	m = probe.OrNop(m)
	if boundary != nil && c.seg == 0 && c.next == 0 {
		if boundary("composite") {
			return nil, true, nil
		}
	}
	interior := boundary != nil && st.cfg.Blend == warp.BlendOverwrite && !st.cfg.ExposureCompensation
	segs := c.plan.segs
	for ; c.seg < len(segs); c.seg, c.next, c.placed = c.seg+1, 0, 0 {
		b, count := segs[c.seg].b, segs[c.seg].count
		if count == 0 || b.Empty() {
			continue
		}
		switch {
		case c.canvas != nil:
		case c.saved != nil:
			c.canvas, c.saved = c.saved.Restore(), nil
		case b.W()*b.H() > st.cfg.MaxPanoramaPixels:
			// A wildly wrong (possibly fault-corrupted) transform made
			// it through: the application aborts, as the original
			// would on a failed giant allocation.
			return nil, false, fmt.Errorf("stitch: segment %d panorama %dx%d exceeds pixel budget", c.seg, b.W(), b.H())
		default:
			c.canvas = warp.NewCanvasMode(b, st.cfg.Blend)
			c.canvas.GainCompensation = st.cfg.ExposureCompensation
		}
		for ; c.next < len(a.regs); c.next++ {
			r := &a.regs[c.next]
			if r.segment != c.seg {
				continue
			}
			if interior && c.placed%CompositeEvery == 0 && (c.seg > 0 || c.placed > 0) &&
				boundary(fmt.Sprintf("composite[%d]", c.next)) {
				return nil, true, nil
			}
			if _, err := warp.WarpOntoCanvas(frames[r.frame], r.h, c.canvas, m); err != nil {
				return nil, false, fmt.Errorf("stitch: warp frame %d: %w", r.frame, err)
			}
			c.placed++
		}
		c.panos = append(c.panos, &Panorama{
			Image:  c.canvas.Resolve(m),
			Bounds: b,
			Frames: count,
		})
		// Only the resolved image survives; hand the float buffers back
		// for the next segment (and the next trial) to reuse.
		c.Release()
	}
	if len(c.panos) == 0 {
		return nil, false, errors.New("stitch: no panorama could be generated")
	}
	return &Result{Panoramas: c.panos, Reports: a.reports, Discarded: a.discarded}, false, nil
}

// Run stitches the frames into mini-panoramas. m is any probe.Sink;
// pass probe.Nop{} for an uninstrumented run (nil is normalized). The
// stitcher's own taps are per-frame, so it threads the interface
// straight through; the per-pixel stages re-dispatch onto their
// devirtualized kernels at their own entry points.
//
// Run is the whole pipeline in one call: per-frame features, the
// registration pass, then compositing. Campaign trials instead drive
// the stage methods (DetectFrame, BeginAlign, AlignStep,
// BeginComposite, CompositeSteps)
// through internal/vs so they can resume from a golden checkpoint
// rather than executing every stage.
func (st *Stitcher) Run(frames []*imgproc.Gray, m probe.Sink) (*Result, error) {
	m = probe.OrNop(m)
	defer m.Enter(probe.RApp)()
	if len(frames) == 0 {
		return nil, ErrNoFrames
	}
	feats := make([]FrameFeatures, 0, len(frames))
	for i := range frames {
		feats = append(feats, st.DetectFrame(frames[i], m))
	}
	a := st.BeginAlign(frames, m)
	for a.Next < a.N {
		st.AlignStep(feats, &a, m)
	}
	return st.Composite(frames, &a, m)
}

// pairScratch holds the per-registration working set (match list and
// correspondence arrays). RANSAC only reads the correspondences and
// retains nothing but its own inlier indices, so the buffers can be
// recycled as soon as registerPair returns.
type pairScratch struct {
	matches  []match.Match
	src, dst []geom.Pt
}

var pairPool sync.Pool

// maxPooledPairElems bounds pooled scratch (a registration sees at
// most MaxFeatures matches in practice; anything bigger is left to
// the GC).
const maxPooledPairElems = 1 << 16

func getPairScratch() *pairScratch {
	if v, _ := pairPool.Get().(*pairScratch); v != nil {
		return v
	}
	return &pairScratch{}
}

func putPairScratch(s *pairScratch) {
	if cap(s.matches) > maxPooledPairElems || cap(s.src) > maxPooledPairElems {
		return
	}
	pairPool.Put(s)
}

// growPts returns a len-n point slice, reusing s's storage if it fits.
// Every element is overwritten by the caller.
func growPts(s []geom.Pt, n int) []geom.Pt {
	if cap(s) < n {
		return make([]geom.Pt, n)
	}
	return s[:n]
}

// registerPair estimates the transform mapping frame `cur` onto frame
// `ref`, trying a homography first and falling back to affine.
func (st *Stitcher) registerPair(cur, ref *FrameFeatures, m probe.Sink) (geom.Homography, FrameStatus, int, int) {
	curKps, curDescs := cur.KPs, cur.Descs
	if st.cfg.KeyPointStride > 1 {
		// VS_KDS: match only a fraction of the key points.
		curKps, curDescs = match.SubsampleStrongest(curKps, curDescs, st.cfg.KeyPointStride)
	}
	sc := getPairScratch()
	defer putPairScratch(sc)
	matches := st.matcher.AppendMatches(sc.matches, curDescs, ref.Descs, m)
	sc.matches = matches
	nm := len(matches)
	src := growPts(sc.src, nm)
	dst := growPts(sc.dst, nm)
	sc.src, sc.dst = src, dst
	for i, mm := range matches {
		x, y := curKps[mm.Query].Pt()
		src[i] = geom.Pt{X: x, Y: y}
		x, y = ref.KPs[mm.Train].Pt()
		dst[i] = geom.Pt{X: x, Y: y}
	}

	// Confidence gates scale with the query key-point count (floored
	// by the absolute minimums a model mathematically needs).
	gateH := gate(st.cfg.MinMatchesHomography, st.cfg.MinMatchFractionHomography, len(curKps))
	gateA := gate(st.cfg.MinMatchesAffine, st.cfg.MinMatchFractionAffine, len(curKps))
	if nm >= gateH {
		cfg := ransac.DefaultConfig(ransac.ModelHomography)
		cfg.Seed = st.cfg.Seed
		cfg.MinInliers = gateH
		if r, err := ransac.Estimate(src, dst, cfg, m); err == nil {
			return r.H, StatusHomography, nm, len(r.Inliers)
		}
	}
	// Affine fallback: "we estimate a simpler affine transformation
	// which requires fewer matching points" (§III-A).
	if nm >= gateA {
		cfg := ransac.DefaultConfig(ransac.ModelAffine)
		cfg.Seed = st.cfg.Seed + 1
		cfg.MinInliers = gateA
		if r, err := ransac.Estimate(src, dst, cfg, m); err == nil {
			return r.H, StatusAffine, nm, len(r.Inliers)
		}
	}
	return geom.Homography{}, StatusDiscarded, nm, 0
}

// gate returns the effective minimum match count: the larger of the
// absolute floor and the confidence fraction of the query size.
func gate(floor int, fraction float64, queryKps int) int {
	g := int(fraction * float64(queryKps))
	if g < floor {
		return floor
	}
	return g
}
