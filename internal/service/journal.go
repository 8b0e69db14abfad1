package service

import (
	"encoding/json"
	"sort"
	"time"

	"vsresil/internal/fault"
	"vsresil/internal/journal"
)

// The service journal (an internal/journal Log) makes the job queue
// durable. Every record is one line:
//
//	{"op":"job","job":{"id":"j1","seq":1,"spec":{...},"enqueued_at":...}}
//	{"op":"state","id":"j1","state":"running"}
//	{"op":"trials","id":"j1","recs":[{"i":0,"o":2},...]}   (campaign checkpoint batch)
//	{"op":"result","id":"j1","result":{...}}
//
// Replay folds the records per job: terminal jobs keep their state and
// result; queued and running jobs are re-enqueued, a running campaign
// carrying its accumulated trial records so its campaign resumes
// instead of rerunning completed trials. On startup the journal is
// compacted: the folded state is rewritten to a fresh file, dropping
// superseded records. Terminal state records are the commit points and
// are fsynced; the rest are flushed only.
type journalRecord struct {
	Op     string              `json:"op"`
	ID     string              `json:"id,omitempty"`
	Job    *journalJob         `json:"job,omitempty"`
	State  JobState            `json:"state,omitempty"`
	Err    string              `json:"err,omitempty"`
	Recs   []fault.TrialRecord `json:"recs,omitempty"`
	Result json.RawMessage     `json:"result,omitempty"`
}

type journalJob struct {
	ID         string    `json:"id"`
	Seq        int       `json:"seq"`
	Spec       JobSpec   `json:"spec"`
	EnqueuedAt time.Time `json:"enqueued_at"`
}

func jobRecord(j *Job) journalRecord {
	return journalRecord{Op: "job", Job: &journalJob{
		ID: j.ID, Seq: j.seq, Spec: j.Spec, EnqueuedAt: j.EnqueuedAt,
	}}
}

// replayJournal reads a journal and folds it into jobs, ordered by
// enqueue sequence. Records the fold cannot place (an unknown job, an
// invalid spec) are ignored.
func replayJournal(path string) (jobs []*Job, maxSeq int, err error) {
	byID := make(map[string]*Job)
	err = journal.Replay(path, func(rec journalRecord) {
		switch rec.Op {
		case "job":
			if rec.Job == nil || rec.Job.ID == "" {
				return
			}
			if rec.Job.Spec.validate(true) != nil {
				return
			}
			byID[rec.Job.ID] = &Job{
				ID:         rec.Job.ID,
				seq:        rec.Job.Seq,
				Spec:       rec.Job.Spec,
				State:      StateQueued,
				EnqueuedAt: rec.Job.EnqueuedAt,
			}
		case "state":
			if j := byID[rec.ID]; j != nil {
				j.State = rec.State
				j.Err = rec.Err
			}
		case "trials":
			if j := byID[rec.ID]; j != nil {
				j.resume = append(j.resume, rec.Recs...)
			}
		case "result":
			if j := byID[rec.ID]; j != nil {
				j.Result = rec.Result
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}

	for _, j := range byID {
		if j.seq > maxSeq {
			maxSeq = j.seq
		}
		// Interrupted work resumes: a job caught running when the
		// daemon died goes back to the queue, keeping its checkpoint.
		if !j.State.terminal() {
			j.State = StateQueued
		}
		// Runtime compaction can race a checkpoint append and leave a
		// trial recorded both in the snapshot and after it; the resume
		// path rejects duplicate indices, so fold them here.
		j.resume = fault.DedupRecords(j.resume)
		if j.Spec.Type == JobCampaign && j.Spec.Campaign != nil {
			j.Progress = Progress{Done: len(j.resume), Total: j.Spec.Campaign.Trials}
		} else {
			j.Progress = Progress{Total: 1}
			if j.State == StateDone {
				j.Progress.Done = 1
			}
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	return jobs, maxSeq, nil
}

// snapshotRecords renders jobs back to the minimal journal record set
// that replays to the same state: one job record each, the latest
// checkpoints, the state if it moved past queued, and the result.
// Both the startup compaction and the runtime rewrite produce exactly
// this shape.
// snapshotTrialBatch is the most trial records one snapshot line
// carries (about 1.6 MB of JSON).
const snapshotTrialBatch = 1 << 16

func snapshotRecords(jobs []*Job) []journalRecord {
	var recs []journalRecord
	for _, j := range jobs {
		recs = append(recs, jobRecord(j))
		// Trial records go out in batches, keeping every snapshot line far
		// below journal.MaxRecordBytes however long the campaign.
		for rs := j.resume; len(rs) > 0; {
			n := min(len(rs), snapshotTrialBatch)
			recs = append(recs, journalRecord{Op: "trials", ID: j.ID, Recs: rs[:n]})
			rs = rs[n:]
		}
		if j.State != StateQueued {
			recs = append(recs, journalRecord{Op: "state", ID: j.ID, State: j.State, Err: j.Err})
		}
		if j.Result != nil {
			recs = append(recs, journalRecord{Op: "result", ID: j.ID, Result: j.Result})
		}
	}
	return recs
}
