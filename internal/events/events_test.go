package events

import (
	"math"
	"testing"

	"vsresil/internal/geom"
	"vsresil/internal/imgproc"
	"vsresil/internal/stitch"
	"vsresil/internal/virat"
)

func TestConnectedComponents(t *testing.T) {
	// Two separate blobs and one sub-minimum speck on a 8x4 grid.
	w, h := 8, 4
	mask := make([]bool, w*h)
	set := func(x, y int) { mask[y*w+x] = true }
	set(0, 0)
	set(1, 0)
	set(0, 1)
	set(1, 1) // blob A: 4 px
	set(5, 2)
	set(6, 2)
	set(5, 3)
	set(6, 3) // blob B: 4 px
	set(3, 0) // speck: 1 px
	comps := connectedComponents(mask, w, h, 2)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	for _, c := range comps {
		if c.area != 4 {
			t.Errorf("component area %d, want 4", c.area)
		}
	}
}

func TestConnectedComponentsNoWrap(t *testing.T) {
	// Pixels at the end of one row and the start of the next must not
	// merge.
	w, h := 4, 2
	mask := make([]bool, w*h)
	mask[3] = true // (3,0)
	mask[4] = true // (0,1)
	comps := connectedComponents(mask, w, h, 1)
	if len(comps) != 2 {
		t.Fatalf("row wrap merged components: %d", len(comps))
	}
}

func TestDetectMotionStaticSceneEmpty(t *testing.T) {
	g := imgproc.NewGray(48, 48)
	for i := range g.Pix {
		g.Pix[i] = uint8(i % 200)
	}
	dets, err := DetectMotion(g, g.Clone(), geom.Identity(), DefaultDetectConfig(), 1, nil)
	if err != nil {
		t.Fatalf("DetectMotion: %v", err)
	}
	if len(dets) != 0 {
		t.Errorf("static scene produced %d detections", len(dets))
	}
}

func TestDetectMotionFindsMovedObject(t *testing.T) {
	bg := imgproc.NewGray(48, 48)
	bg.Fill(100)
	prev := bg.Clone()
	cur := bg.Clone()
	stamp := func(img *imgproc.Gray, cx, cy int) {
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				img.Set(cx+dx, cy+dy, 255)
			}
		}
	}
	stamp(prev, 10, 20)
	stamp(cur, 16, 20) // moved 6 px right
	dets, err := DetectMotion(prev, cur, geom.Identity(), DefaultDetectConfig(), 3, nil)
	if err != nil {
		t.Fatalf("DetectMotion: %v", err)
	}
	if len(dets) == 0 {
		t.Fatal("moved object not detected")
	}
	// The strongest detection must be near either the old or the new
	// location (frame differencing reports both).
	d := dets[0]
	nearNew := math.Hypot(d.X-16, d.Y-20) < 6
	nearOld := math.Hypot(d.X-10, d.Y-20) < 6
	if !nearNew && !nearOld {
		t.Errorf("detection at (%.1f,%.1f), want near (16,20) or (10,20)", d.X, d.Y)
	}
	if d.Frame != 3 {
		t.Errorf("detection frame %d", d.Frame)
	}
}

func TestDetectMotionCompensatesCameraMotion(t *testing.T) {
	// A static textured scene seen by a translating camera: after
	// homography compensation there must be (almost) no motion.
	world := imgproc.NewGray(96, 96)
	for i := range world.Pix {
		world.Pix[i] = uint8((i*31 + i/96*7) % 256)
	}
	crop := func(x0, y0 int) *imgproc.Gray {
		out := imgproc.NewGray(48, 48)
		for y := 0; y < 48; y++ {
			copy(out.Pix[y*48:(y+1)*48], world.Pix[(y0+y)*world.W+x0:])
		}
		return out
	}
	prev := crop(0, 0)
	cur := crop(6, 0)
	// prev -> cur: content shifts left by 6.
	h := geom.Translation(-6, 0)
	dets, err := DetectMotion(prev, cur, h, DefaultDetectConfig(), 1, nil)
	if err != nil {
		t.Fatalf("DetectMotion: %v", err)
	}
	if len(dets) != 0 {
		t.Errorf("camera motion not compensated: %d detections", len(dets))
	}
}

// buildSummary runs the full stitch+summarize path on a smooth input
// with moving objects.
func buildSummary(t *testing.T, objects int) (*Summary, *stitch.Result, *virat.Sequence) {
	t.Helper()
	p := virat.TestScale()
	p.Frames = 12
	seq := virat.Input2(p)
	seq.NoiseSigma = 2 // light noise so motion detection stays clean
	if objects > 0 {
		seq.AddMovingObjects(objects, 9)
	}
	frames := seq.Frames()
	st := stitch.New(stitch.DefaultConfig())
	res, err := st.Run(frames, nil)
	if err != nil {
		t.Fatalf("stitch: %v", err)
	}
	sum, err := Summarize(frames, res, DefaultDetectConfig(), DefaultTrackConfig(), nil)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	return sum, res, seq
}

func TestSummarizeTracksMovingObjects(t *testing.T) {
	sum, _, _ := buildSummary(t, 6)
	if len(sum.Tracks) == 0 {
		t.Fatal("no tracks for a scene with moving objects")
	}
	for _, tr := range sum.Tracks {
		if len(tr.Points) != len(tr.Frames) {
			t.Fatalf("track %d points/frames mismatch", tr.ID)
		}
		if len(tr.Points) < DefaultTrackConfig().MinLength {
			t.Errorf("track %d shorter than MinLength", tr.ID)
		}
		// Frames must be strictly increasing.
		for i := 1; i < len(tr.Frames); i++ {
			if tr.Frames[i] <= tr.Frames[i-1] {
				t.Errorf("track %d frames not increasing: %v", tr.ID, tr.Frames)
			}
		}
	}
}

func TestSummarizeStaticSceneFewTracks(t *testing.T) {
	sum, _, _ := buildSummary(t, 0)
	if len(sum.Tracks) > 1 {
		t.Errorf("static scene produced %d tracks", len(sum.Tracks))
	}
}

func TestOverlayDrawsOnCopy(t *testing.T) {
	sum, res, _ := buildSummary(t, 6)
	prim := res.Primary()
	before := prim.Image.Clone()
	over := Overlay(prim.Image, prim.Bounds.MinX, prim.Bounds.MinY, sum.Tracks)
	if !prim.Image.Equal(before) {
		t.Error("Overlay mutated the panorama")
	}
	if len(sum.Tracks) > 0 && over.Equal(prim.Image) {
		t.Error("Overlay drew nothing despite tracks")
	}
}

func TestDrawLineEndpoints(t *testing.T) {
	img := imgproc.NewGray(10, 10)
	drawLine(img, 1, 1, 8, 6, 200)
	if img.At(1, 1) != 200 || img.At(8, 6) != 200 {
		t.Error("line endpoints not drawn")
	}
	// Clipping: must not panic outside bounds.
	drawLine(img, -5, -5, 15, 15, 200)
}

func TestDrawMarkerClips(t *testing.T) {
	img := imgproc.NewGray(4, 4)
	drawMarker(img, 0, 0, 255)
	drawMarker(img, -10, -10, 255) // fully outside: no panic
	if img.At(0, 0) != 255 {
		t.Error("marker center not drawn")
	}
}
