package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vsresil/internal/fault"
	"vsresil/internal/journal"
)

// TestJournalFormatPin replays a hand-written journal in the format vsd
// has always written — job, state, trials (one trial index recorded
// twice), result — and requires the same jobs, states, checkpoints and
// progress; the startup snapshot of it must replay to the same again.
// Jobs j4 and j5 are campaigns journaled before vsd dropped its
// "shards" field and rejected adaptive-only fields on fixed-budget
// jobs. j4 was interrupted after a partial checkpoint batch: it must
// still replay, resume and finish with the counts of a cold run. j5 is
// done and must keep its result.
func TestJournalFormatPin(t *testing.T) {
	camp, _ := json.Marshal(testCampaignSpec(60))
	sum, _ := json.Marshal(JobSpec{Type: JobSummarize, Summarize: &SummarizeSpec{InputSpec: InputSpec{Scale: "test", Frames: 4}}})
	legacySpec := testCampaignSpec(40)
	legacy, _ := json.Marshal(legacySpec)
	// Earlier daemons accepted "shards" and, on a fixed-budget job, the
	// adaptive-only "round_size" and "max_trials"; such a job still
	// replays and finishes.
	legacy = bytes.Replace(legacy, []byte(`"trials":40`), []byte(`"trials":40,"shards":3,"round_size":8,"max_trials":500`), 1)
	cold := coldCampaign(t, legacySpec.Campaign)
	var partial []fault.TrialRecord
	for i := 0; i < 10; i++ {
		partial = append(partial, cold.Trials[i].Record(i))
	}
	partialJSON, _ := json.Marshal(partial)
	at := "2026-01-02T03:04:05Z"
	legacyLines := []string{
		fmt.Sprintf(`{"op":"job","job":{"id":"j4","seq":4,"spec":%s,"enqueued_at":%q}}`, legacy, at),
		`{"op":"state","id":"j4","state":"running"}`,
		fmt.Sprintf(`{"op":"trials","id":"j4","recs":%s}`, partialJSON),
		fmt.Sprintf(`{"op":"job","job":{"id":"j5","seq":5,"spec":%s,"enqueued_at":%q}}`, legacy, at),
		`{"op":"result","id":"j5","result":{"completed":40}}`,
		`{"op":"state","id":"j5","state":"done"}`,
	}
	lines := []string{
		fmt.Sprintf(`{"op":"job","job":{"id":"j1","seq":1,"spec":%s,"enqueued_at":%q}}`, camp, at),
		fmt.Sprintf(`{"op":"job","job":{"id":"j2","seq":2,"spec":%s,"enqueued_at":%q}}`, sum, at),
		`{"op":"state","id":"j1","state":"running"}`,
		`{"op":"trials","id":"j1","recs":[{"i":0,"o":0},{"i":2,"o":2},{"i":1,"o":1,"c":1,"l":true}]}`,
		`{"op":"state","id":"j2","state":"running"}`,
		`{"op":"result","id":"j2","result":{"fig":"x"}}`,
		`{"op":"state","id":"j2","state":"done"}`,
		`{"op":"trials","id":"j1","recs":[{"i":2,"o":0},{"i":3,"o":3,"l":true}]}`,
		fmt.Sprintf(`{"op":"job","job":{"id":"j3","seq":3,"spec":%s,"enqueued_at":%q}}`, sum, at),
		`{"op":"state","id":"j3","state":"canceled"}`,
	}
	lines = append(lines, legacyLines...)
	path := filepath.Join(t.TempDir(), "vsd.journal")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	type view struct {
		ID       string
		State    JobState
		Progress Progress
		Resume   []fault.TrialRecord
		Result   string
	}
	want := []view{
		{ID: "j1", State: StateQueued, Progress: Progress{Done: 4, Total: 60}, Resume: []fault.TrialRecord{
			{Index: 0, Outcome: fault.OutcomeMask},
			{Index: 1, Outcome: fault.OutcomeCrash, Crash: 1, Landed: true},
			{Index: 2, Outcome: fault.OutcomeSDC}, // the first record of index 2 wins
			{Index: 3, Outcome: fault.OutcomeHang, Landed: true},
		}},
		{ID: "j2", State: StateDone, Progress: Progress{Done: 1, Total: 1}, Result: `{"fig":"x"}`},
		{ID: "j3", State: StateCanceled, Progress: Progress{Total: 1}},
		{ID: "j4", State: StateQueued, Progress: Progress{Done: 10, Total: 40}, Resume: partial},
		{ID: "j5", State: StateDone, Progress: Progress{Total: 40}, Result: `{"completed":40}`},
	}
	check := func(stage string) {
		t.Helper()
		jobs, maxSeq, err := replayJournal(path)
		if err != nil {
			t.Fatalf("%s: replay: %v", stage, err)
		}
		if maxSeq != 5 {
			t.Errorf("%s: max seq %d, want 5", stage, maxSeq)
		}
		var got []view
		for _, j := range jobs {
			if !j.EnqueuedAt.Equal(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)) {
				t.Errorf("%s: %s enqueued at %v", stage, j.ID, j.EnqueuedAt)
			}
			got = append(got, view{ID: j.ID, State: j.State, Progress: j.Progress, Resume: j.resume, Result: string(j.Result)})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replayed\n%+v\nwant\n%+v", stage, got, want)
		}
	}
	check("hand-written")

	jobs, _, _ := replayJournal(path)
	jl, err := journal.Open(path, snapshotRecords(jobs))
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := jl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	check("compacted")

	legacyPath := filepath.Join(t.TempDir(), "legacy.journal")
	if err := os.WriteFile(legacyPath, []byte(strings.Join(legacyLines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Workers: 1, JournalPath: legacyPath})
	waitFor(t, 120*time.Second, "legacy campaign done", func() bool {
		s, err := svc.Get("j4")
		if err != nil {
			t.Fatalf("legacy job lost on replay: %v", err)
		}
		if s.State == StateFailed {
			t.Fatalf("legacy job failed: %s", s.Error)
		}
		return s.State == StateDone
	})
	if raw, err := svc.Result("j5"); err != nil || string(raw) != `{"completed":40}` {
		t.Errorf("legacy done job result %s, %v", raw, err)
	}
	raw, err := svc.Result("j4")
	if err != nil {
		t.Fatalf("legacy result: %v", err)
	}
	var cr CampaignResult
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Resumed != len(partial) || cr.Completed != 40 {
		t.Errorf("legacy job resumed %d and completed %d, want %d and 40", cr.Resumed, cr.Completed, len(partial))
	}
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		if cr.Counts[o.String()] != cold.Counts[o] {
			t.Errorf("outcome %s: resumed legacy job %d, cold run %d", o, cr.Counts[o.String()], cold.Counts[o])
		}
	}
}

// TestJournalCorruptMidFile: a damaged line with records after it is
// corruption, not a torn write, so the service refuses to start
// instead of silently dropping the job or state it held.
func TestJournalCorruptMidFile(t *testing.T) {
	sum, _ := json.Marshal(JobSpec{Type: JobSummarize, Summarize: &SummarizeSpec{InputSpec: InputSpec{Scale: "test", Frames: 4}}})
	path := filepath.Join(t.TempDir(), "vsd.journal")
	data := fmt.Sprintf(`{"op":"job","job":{"id":"j1","seq":1,"spec":%s}}`, sum) + "\n" +
		`{"op":"state","id":"j1","sta` + "\n" +
		`{"op":"state","id":"j1","state":"done"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Workers: 1, JournalPath: path})
	if err == nil {
		svc.Shutdown(context.Background())
		t.Fatal("service started on a journal corrupt at line 2")
	}
	if !strings.Contains(err.Error(), path+":2:") {
		t.Errorf("error %q does not name %s:2", err, path)
	}
	if got, _ := os.ReadFile(path); string(got) != data {
		t.Error("failed startup rewrote the corrupt journal")
	}
}

// TestEnqueueJournalFailure: a job whose record cannot be journaled is
// refused, never queued, and the HTTP layer reports a server error.
func TestEnqueueJournalFailure(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "vsd.journal")})
	svc.journal.Close()
	_, err := svc.Enqueue(testCampaignSpec(10))
	if !errors.Is(err, journal.ErrWrite) {
		t.Fatalf("enqueue on a closed journal: err %v, want journal.ErrWrite", err)
	}
	if jobs := svc.List(); len(jobs) != 0 {
		t.Errorf("unjournaled job is visible: %+v", jobs)
	}
	if code := statusFor(err); code != http.StatusInternalServerError {
		t.Errorf("HTTP status %d for a journal failure, want 500", code)
	}
}

// TestOversizeJobNotJournaled submits a job whose body is over the
// journal's 64 MiB record limit. It must be refused with a 4xx before
// anything is journaled, and vsd must restart on the same journal:
// journaling it would leave a line the replay cannot read, and every
// later start would fail.
func TestOversizeJobNotJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vsd.journal")
	svc, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	body := `{"type":"summarize","summarize":{"frames_pgm":["` + strings.Repeat("A", 65<<20) + `"]}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Errorf("65 MiB submission: status %d, want 4xx", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	restarted, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("restart on the same journal: %v", err)
	}
	defer restarted.Shutdown(ctx)
	if jobs := restarted.List(); len(jobs) != 0 {
		t.Errorf("restarted service has %d jobs, want none", len(jobs))
	}
}

// TestSnapshotBatchesTrialRecords: a long campaign's checkpoint
// records are snapshotted over several lines, each well under the
// journal's record limit, and replay to the same resume set.
func TestSnapshotBatchesTrialRecords(t *testing.T) {
	spec := testCampaignSpec(3 * snapshotTrialBatch)
	j := &Job{ID: "j1", seq: 1, Spec: spec, State: StateRunning}
	for i := range 2*snapshotTrialBatch + 5 {
		j.resume = append(j.resume, fault.TrialRecord{Index: i, Outcome: fault.OutcomeMask})
	}
	recs := snapshotRecords([]*Job{j})
	lines := 0
	for _, r := range recs {
		if r.Op == "trials" {
			lines++
		}
	}
	if lines != 3 {
		t.Errorf("%d records snapshotted in %d trials lines, want 3", len(j.resume), lines)
	}
	path := filepath.Join(t.TempDir(), "vsd.journal")
	l, err := journal.Open(path, recs)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Close()
	jobs, _, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(jobs) != 1 || !reflect.DeepEqual(jobs[0].resume, j.resume) {
		t.Errorf("replayed resume set differs from the snapshotted one")
	}
}
