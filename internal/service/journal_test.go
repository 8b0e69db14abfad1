package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
func TestJournalFormatPin(t *testing.T) {
	camp, _ := json.Marshal(testCampaignSpec(60))
	sum, _ := json.Marshal(JobSpec{Type: JobSummarize, Summarize: &SummarizeSpec{InputSpec: InputSpec{Scale: "test", Frames: 4}}})
	at := "2026-01-02T03:04:05Z"
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
	}
	check := func(stage string) {
		t.Helper()
		jobs, maxSeq, err := replayJournal(path)
		if err != nil {
			t.Fatalf("%s: replay: %v", stage, err)
		}
		if maxSeq != 3 {
			t.Errorf("%s: max seq %d, want 3", stage, maxSeq)
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
