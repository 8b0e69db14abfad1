package virat

import (
	"fmt"
	"math"

	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/stats"
)

// Preset scales a generated input (the paper runs 1000 frames; tests
// run far smaller).
type Preset struct {
	// Frames is the number of frames in the sequence.
	Frames int
	// FrameW, FrameH are the frame dimensions.
	FrameW, FrameH int
	// WorldSize is the procedural landscape edge length.
	WorldSize int
}

// PaperScale approximates the paper's input sizes (1000 frames after
// temporal sampling; VIRAT aerial footage downsampled by 3).
func PaperScale() Preset {
	return Preset{Frames: 1000, FrameW: 320, FrameH: 240, WorldSize: 4096}
}

// BenchScale is the default for the benchmark harness: large enough to
// show the paper's contrasts, small enough to run campaigns in
// minutes.
func BenchScale() Preset {
	return Preset{Frames: 60, FrameW: 128, FrameH: 96, WorldSize: 1024}
}

// TestScale keeps unit tests fast.
func TestScale() Preset {
	return Preset{Frames: 16, FrameW: 96, FrameH: 72, WorldSize: 512}
}

// Sequence is a deterministic synthetic input video with ground truth.
type Sequence struct {
	// Name labels the input in reports ("Input1", "Input2").
	Name string
	// World is the landscape the camera observed.
	World *World
	// Poses holds the camera pose of every frame.
	Poses []Pose
	// FrameW, FrameH are the rendered frame dimensions.
	FrameW, FrameH int
	// Cuts marks frame indices that begin a new camera segment (hard
	// scene changes — the mini-panorama boundaries of §III).
	Cuts []int
	// NoiseSigma is the per-frame Gaussian sensor noise (graininess of
	// real aerial footage), deterministic per frame index. Noise makes
	// registration quality degrade with inter-frame displacement the
	// way the paper's VIRAT inputs do.
	NoiseSigma float64
	// Objects are moving ground objects (vehicles, pedestrians)
	// rendered into the frames — the raw material of the event
	// summarization stage (Fig 2 of the paper).
	Objects []MovingObject
	// Scenario is the degradation chain applied to every frame after
	// base rendering. The zero value is the identity scenario, which
	// leaves frames byte-identical to the historical presets. It must
	// be set before any frame is rendered (GenerateInput does this).
	Scenario Scenario

	frames []*imgproc.Gray // lazily rendered cache
}

// MovingObject is a ground object moving linearly through world
// coordinates.
type MovingObject struct {
	// X0, Y0 is the world position at frame 0; VX, VY the per-frame
	// velocity in world pixels.
	X0, Y0, VX, VY float64
	// Size is the square object's edge length in world pixels.
	Size int
	// Shade is the object's intensity.
	Shade uint8
}

// At returns the object's world position at frame t.
func (o MovingObject) At(t int) (float64, float64) {
	return o.X0 + o.VX*float64(t), o.Y0 + o.VY*float64(t)
}

// AddMovingObjects populates the sequence with n objects moving along
// deterministic linear paths near the camera's trajectory, so that a
// useful fraction appears in view. It must be called before any frame
// is rendered.
func (s *Sequence) AddMovingObjects(n int, seed uint64) {
	if s.frames != nil {
		panic("virat: AddMovingObjects after frames were rendered")
	}
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		// Anchor each object near the camera position of a random
		// frame so objects actually enter the field of view.
		anchor := s.Poses[rng.Intn(len(s.Poses))]
		speed := 0.4 + rng.Float64()*1.6
		angle := rng.Float64() * 2 * math.Pi
		s.Objects = append(s.Objects, MovingObject{
			X0:    anchor.X + (rng.Float64()-0.5)*float64(s.FrameW),
			Y0:    anchor.Y + (rng.Float64()-0.5)*float64(s.FrameH),
			VX:    math.Cos(angle) * speed,
			VY:    math.Sin(angle) * speed,
			Size:  3 + rng.Intn(4),
			Shade: 255, // white: high contrast against any terrain
		})
	}
}

// Len returns the number of frames.
func (s *Sequence) Len() int { return len(s.Poses) }

// Frame renders (and caches) frame i.
func (s *Sequence) Frame(i int) *imgproc.Gray {
	if i < 0 || i >= len(s.Poses) {
		panic(fmt.Sprintf("virat: frame index %d out of range [0,%d)", i, len(s.Poses)))
	}
	if s.frames == nil {
		s.frames = make([]*imgproc.Gray, len(s.Poses))
	}
	if s.frames[i] == nil {
		s.frames[i] = s.render(s.Poses[i], uint64(i))
	}
	return s.frames[i]
}

// Frames renders all frames.
func (s *Sequence) Frames() []*imgproc.Gray {
	out := make([]*imgproc.Gray, s.Len())
	for i := range out {
		out[i] = s.Frame(i)
	}
	return out
}

// render samples the world through the pose with bilinear
// interpolation; off-world samples fade to a dark border. Sensor noise
// is added deterministically from the frame index.
func (s *Sequence) render(p Pose, frameIdx uint64) *imgproc.Gray {
	h := p.FrameToWorld(s.FrameW, s.FrameH)
	out := imgproc.NewGray(s.FrameW, s.FrameH)
	var rng *stats.RNG
	if s.NoiseSigma > 0 {
		rng = stats.NewRNG(0xF0A3 + frameIdx*0x9e3779b97f4a7c15)
	}
	for y := 0; y < s.FrameH; y++ {
		for x := 0; x < s.FrameW; x++ {
			wp := h.Apply(geom.Pt{X: float64(x), Y: float64(y)})
			v, ok := imgproc.SampleBilinear(s.World.Img, wp.X, wp.Y)
			if !ok {
				v = 20
			}
			if rng != nil {
				out.Set(x, y, imgproc.SaturateUint8(float64(v)+rng.NormFloat64()*s.NoiseSigma))
			} else {
				out.Set(x, y, v)
			}
		}
	}
	s.renderObjects(out, h, int(frameIdx))
	if !s.Scenario.IsIdentity() {
		s.Scenario.apply(out, int(frameIdx))
	}
	return out
}

// renderObjects stamps the moving objects visible in this frame.
func (s *Sequence) renderObjects(out *imgproc.Gray, frameToWorld geom.Homography, t int) {
	if len(s.Objects) == 0 {
		return
	}
	worldToFrame, err := frameToWorld.Inverse()
	if err != nil {
		return
	}
	for _, o := range s.Objects {
		wx, wy := o.At(t)
		fp := worldToFrame.Apply(geom.Pt{X: wx, Y: wy})
		half := o.Size / 2
		for dy := -half; dy <= half; dy++ {
			for dx := -half; dx <= half; dx++ {
				x := int(fp.X) + dx
				y := int(fp.Y) + dy
				if out.InBounds(x, y) {
					out.Set(x, y, o.Shade)
				}
			}
		}
	}
}

// Input1 generates the reproduction's analogue of VIRAT clip
// 09152008flight2tape1_2: fast panning with frequent heading and
// altitude changes plus hard scene cuts, producing many mini-panoramas
// and pronounced frame-to-frame variation.
func Input1(p Preset) *Sequence {
	world := GenerateWorld(worldConfigFor(p, 0xA1))
	rng := stats.NewRNG(0x1A1)
	margin := float64(p.FrameW) * 2
	span := float64(p.WorldSize) - 2*margin

	s := &Sequence{
		Name:       "Input1",
		World:      world,
		FrameW:     p.FrameW,
		FrameH:     p.FrameH,
		NoiseSigma: 7,
	}
	x := margin + rng.Float64()*span
	y := margin + rng.Float64()*span
	heading := rng.Float64() * 2 * math.Pi
	zoom := 1.0
	speed := float64(p.FrameW) * 0.14 // fast pan: ~14% of frame per step

	segment := 0
	for i := 0; i < p.Frames; i++ {
		// Hard scene cut roughly every ~18% of the sequence: jump to a
		// new world region with a new heading — unstitchable, starting
		// a new mini-panorama. Segments never get shorter than 8
		// frames so within-segment overlap (and hence compositional
		// masking) exists at every preset scale.
		cutEvery := p.Frames / 6
		if cutEvery < 8 {
			cutEvery = 8
		}
		if i > 0 && i%cutEvery == 0 {
			x = margin + rng.Float64()*span
			y = margin + rng.Float64()*span
			heading = rng.Float64() * 2 * math.Pi
			zoom = 0.9 + rng.Float64()*0.3
			s.Cuts = append(s.Cuts, i)
			segment++
		}
		// Frequent heading and altitude drift within a segment.
		heading += (rng.Float64() - 0.5) * 0.22
		zoom *= 1 + (rng.Float64()-0.5)*0.05
		if zoom < 0.7 {
			zoom = 0.7
		}
		if zoom > 1.4 {
			zoom = 1.4
		}
		x += math.Cos(heading) * speed * zoom
		y += math.Sin(heading) * speed * zoom
		x = clampF(x, margin, margin+span)
		y = clampF(y, margin, margin+span)
		s.Poses = append(s.Poses, Pose{X: x, Y: y, Heading: heading, Zoom: zoom})
	}
	return s
}

// Input2 generates the analogue of VIRAT clip 09152008flight2tape2_4:
// a slow, smooth, nearly straight sweep at constant altitude — low
// frame-to-frame variation and no scene cuts.
func Input2(p Preset) *Sequence {
	world := GenerateWorld(worldConfigFor(p, 0xB2))
	rng := stats.NewRNG(0x2B2)
	margin := float64(p.FrameW) * 2

	s := &Sequence{
		Name:       "Input2",
		World:      world,
		FrameW:     p.FrameW,
		FrameH:     p.FrameH,
		NoiseSigma: 4,
	}
	// A gentle diagonal sweep sized to stay inside the world.
	x := margin
	y := margin
	heading := 0.6
	zoom := 1.0
	span := float64(p.WorldSize) - 2*margin
	speed := span * 1.2 / float64(p.Frames) // slow: sized to cross once
	if max := float64(p.FrameW) * 0.03; speed > max {
		speed = max
	}
	for i := 0; i < p.Frames; i++ {
		heading += (rng.Float64() - 0.5) * 0.012 // barely drifts
		x += math.Cos(heading) * speed
		y += math.Sin(heading) * speed
		x = clampF(x, margin, margin+span)
		y = clampF(y, margin, margin+span)
		s.Poses = append(s.Poses, Pose{X: x, Y: y, Heading: 0.15, Zoom: zoom})
	}
	return s
}

// Inputs returns both paper inputs at the given preset.
func Inputs(p Preset) []*Sequence {
	return []*Sequence{Input1(p), Input2(p)}
}

func worldConfigFor(p Preset, seed uint64) WorldConfig {
	cfg := DefaultWorldConfig()
	cfg.Size = p.WorldSize
	cfg.Seed = seed
	// Feature density is fixed per unit area so every frame sees
	// enough structure for key-point registration regardless of the
	// preset's world size.
	area := p.WorldSize * p.WorldSize
	cfg.Buildings = area / 300
	cfg.Roads = p.WorldSize/96 + 4
	cfg.Blobs = area / 500
	cfg.Rocks = area / 120
	return cfg
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
