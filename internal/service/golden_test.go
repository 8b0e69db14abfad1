package service

import (
	"bytes"
	"encoding/base64"
	"testing"
	"time"

	"vsresil/internal/imgproc"
	"vsresil/internal/virat"
)

// campaignSpecWith builds the shared small campaign with one knob
// varied, to probe the golden-cache key.
func campaignSpecWith(class string, seed uint64) JobSpec {
	return JobSpec{
		Type: JobCampaign,
		Campaign: &CampaignSpec{
			InputSpec: InputSpec{Input: 2, Scale: "test", Frames: 6},
			Algorithm: "VS",
			Class:     class,
			Trials:    5,
			Seed:      seed,
		},
	}
}

// uploadSpecWith builds a small campaign over uploaded frames whose PGM
// headers carry comment (none when ""): the same pixels in a
// different encoding.
func uploadSpecWith(t *testing.T, comment string) JobSpec {
	t.Helper()
	p := virat.TestScale()
	p.Frames = 6
	var encoded []string
	for _, f := range virat.Input1(p).Frames() {
		var buf bytes.Buffer
		if err := imgproc.WritePGM(&buf, f); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if comment != "" {
			raw = bytes.Replace(raw, []byte("P5\n"), []byte("P5\n# "+comment+"\n"), 1)
		}
		encoded = append(encoded, base64.StdEncoding.EncodeToString(raw))
	}
	return JobSpec{Type: JobCampaign, Campaign: &CampaignSpec{
		InputSpec: InputSpec{FramesPGM: encoded},
		Class:     "gpr",
		Trials:    5,
		Seed:      7,
	}}
}

// TestGoldenCacheSharing checks that campaign jobs over the same
// workload share one golden capture — and that changing the app seed
// (which changes the golden run) does not. Uploaded frames key by
// their decoded pixels, so the same frames under a different PGM
// header share a capture too.
func TestGoldenCacheSharing(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})

	run := func(spec JobSpec) {
		st, err := svc.Enqueue(spec)
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		waitFor(t, 60*time.Second, "job "+st.ID+" done", func() bool {
			got, err := svc.Get(st.ID)
			if err != nil {
				t.Fatalf("get %s: %v", st.ID, err)
			}
			if got.State == StateFailed {
				t.Fatalf("job %s failed: %s", st.ID, got.Error)
			}
			return got.State == StateDone
		})
	}

	run(campaignSpecWith("gpr", 7))    // miss: first sight of the workload
	run(campaignSpecWith("fpr", 7))    // hit: class is not part of the key
	run(campaignSpecWith("gpr", 7))    // hit: identical workload
	run(campaignSpecWith("gpr", 8))    // miss: different app seed
	run(uploadSpecWith(t, ""))         // miss: first sight of the uploaded frames
	run(uploadSpecWith(t, "tenant b")) // hit: same pixels, different header

	svc.metrics.mu.Lock()
	hits, misses := svc.metrics.goldenHits, svc.metrics.goldenMisses
	svc.metrics.mu.Unlock()
	if hits != 3 || misses != 3 {
		t.Errorf("golden cache hits/misses = %d/%d, want 3/3", hits, misses)
	}
}
