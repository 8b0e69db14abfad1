package fabric

import (
	"encoding/json"
	"strconv"
	"time"

	"vsresil/internal/fault"
	"vsresil/internal/journal"
)

// The coordinator journal is an internal/journal Log, like the
// service's: one op-tagged record per line, folded on replay, compacted
// to a snapshot after every successful replay so restarts never re-read
// unbounded lease churn. The ops:
//
//	{"op":"campaign","campaign":"c1","spec":{...},"shards":4}
//	{"op":"round","campaign":"c1","round":1,"windows":[[24,36],[36,48]]}
//	{"op":"lease","campaign":"c1","lease":"l7","shard":2,"worker":"w1","deadline":...}
//	{"op":"shard","campaign":"c1","shard":2,"recs":[...],"sdc":[...]}
//	{"op":"state","campaign":"c1","state":"done","result":{...}}
//
// A shard record is the commit point of "first journaled result wins":
// the coordinator commits (fsyncs) it under its mutex before it marks
// the shard done or acknowledges the completion, so replay (which
// keeps the first shard record per index and drops the rest) agrees
// with the live tie-break. Replay also drops a shard record carrying an
// outcome outside the four classes, so a corrupt completion is leased
// again instead of reaching the planner. Terminal state records are
// committed too; campaign, round and lease records are flushed only.
//
// Round records exist only for adaptive campaigns: each one appends
// the round's shard windows to the campaign's shard table, so replayed
// shard results land on the right indices. A static campaign's single
// round needs none — its windows follow from the campaign record's
// trials and shards. The plans themselves are never journaled — the
// restarted coordinator's planner regenerates them (and the windows)
// deterministically from the spec plus the journaled outcomes.
type record struct {
	Op       string              `json:"op"`
	Campaign string              `json:"campaign,omitempty"`
	Spec     *CampaignSpec       `json:"spec,omitempty"`
	Shards   int                 `json:"shards,omitempty"`
	Lease    string              `json:"lease,omitempty"`
	Shard    int                 `json:"shard,omitempty"`
	Worker   string              `json:"worker,omitempty"`
	Deadline *time.Time          `json:"deadline,omitempty"`
	Recs     []fault.TrialRecord `json:"recs,omitempty"`
	SDC      []SDCOutput         `json:"sdc,omitempty"`
	State    string              `json:"state,omitempty"`
	Err      string              `json:"err,omitempty"`
	Result   json.RawMessage     `json:"result,omitempty"`
	Round    int                 `json:"round,omitempty"`
	Windows  [][2]int            `json:"windows,omitempty"`
}

// replayJournal folds the journal into the coordinator's campaign
// table. Live leases are restored with their journaled deadlines —
// expired ones are swept by the normal reassignment path once the
// coordinator runs.
func replayJournal(path string) (camps []*camp, maxCampSeq, maxLeaseSeq int, err error) {
	byID := make(map[string]*camp)
	err = journal.Replay(path, func(rec record) {
		switch rec.Op {
		case "campaign":
			if rec.Spec == nil || rec.Campaign == "" || rec.Shards < 1 {
				return
			}
			rec.Spec.DropLegacyKnobs()
			if rec.Spec.Validate() != nil {
				return
			}
			if byID[rec.Campaign] != nil {
				return
			}
			cm := newCamp(rec.Campaign, *rec.Spec, rec.Shards)
			byID[rec.Campaign] = cm
			camps = append(camps, cm)
			maxCampSeq = maxSeq(maxCampSeq, rec.Campaign, "c")
		case "round":
			cm := byID[rec.Campaign]
			if cm == nil || !cm.spec.Adaptive || len(rec.Windows) == 0 {
				return
			}
			cm.addRound(rec.Round, rec.Windows)
		case "lease":
			cm := byID[rec.Campaign]
			if cm == nil || rec.Shard < 0 || rec.Shard >= len(cm.shards) || rec.Deadline == nil {
				return
			}
			sh := cm.shards[rec.Shard]
			if sh.done {
				return
			}
			sh.leases[rec.Lease] = &lease{
				id: rec.Lease, campaign: cm.id, shard: rec.Shard,
				worker: rec.Worker, deadline: *rec.Deadline,
			}
			maxLeaseSeq = maxSeq(maxLeaseSeq, rec.Lease, "l")
		case "shard":
			cm := byID[rec.Campaign]
			if cm == nil || rec.Shard < 0 || rec.Shard >= len(cm.shards) || checkOutcomes(rec.Recs) != nil {
				return
			}
			sh := cm.shards[rec.Shard]
			if sh.done {
				return // first journaled result wins
			}
			sh.done = true
			sh.recs = fault.DedupRecords(rec.Recs)
			sh.sdc = rec.SDC
			sh.leases = make(map[string]*lease)
			cm.doneShards++
		case "state":
			if cm := byID[rec.Campaign]; cm != nil && rec.State != "" {
				cm.state = rec.State
				cm.err = rec.Err
				cm.resultJSON = rec.Result
			}
		}
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return camps, maxCampSeq, maxLeaseSeq, nil
}

// maxSeq folds an id of the form "<prefix><n>" into a running max.
func maxSeq(cur int, id, prefix string) int {
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return cur
	}
	if n, err := strconv.Atoi(id[len(prefix):]); err == nil && n > cur {
		return n
	}
	return cur
}

// snapshotRecords renders the folded campaign table back to journal
// records: campaign + completed shards + live leases for running
// campaigns, campaign + terminal state (with result) for finished
// ones. This is both the replay-time compaction and the runtime
// rewrite target.
func snapshotRecords(camps []*camp) []record {
	var recs []record
	for _, cm := range camps {
		recs = append(recs, record{Op: "campaign", Campaign: cm.id, Spec: &cm.spec, Shards: cm.fanout})
		if cm.spec.Adaptive {
			if cm.state != campRunning {
				// Finished adaptive campaigns replay from the state
				// record alone; the round/shard history is dead weight.
				recs = append(recs, record{Op: "state", Campaign: cm.id, State: cm.state, Err: cm.err, Result: cm.resultJSON})
				continue
			}
			// Re-emit the round structure so shard indices stay valid.
			for i := 0; i < len(cm.shards); {
				j, r := i, cm.shards[i].round
				var windows [][2]int
				for j < len(cm.shards) && cm.shards[j].round == r {
					windows = append(windows, [2]int{cm.shards[j].lo, cm.shards[j].hi})
					j++
				}
				recs = append(recs, record{Op: "round", Campaign: cm.id, Round: r, Windows: windows})
				i = j
			}
		}
		for i, sh := range cm.shards {
			if sh.done {
				recs = append(recs, record{Op: "shard", Campaign: cm.id, Shard: i, Recs: sh.recs, SDC: sh.sdc})
				continue
			}
			for _, l := range sh.leases {
				d := l.deadline
				recs = append(recs, record{
					Op: "lease", Campaign: cm.id, Lease: l.id, Shard: i,
					Worker: l.worker, Deadline: &d,
				})
			}
		}
		if cm.state != campRunning {
			recs = append(recs, record{Op: "state", Campaign: cm.id, State: cm.state, Err: cm.err, Result: cm.resultJSON})
		}
	}
	return recs
}
