package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"vsresil/internal/fault"
)

// The coordinator journal follows internal/service's JSONL shape: one
// op-tagged record per line, folded on replay, compacted to a snapshot
// after every successful replay so restarts never re-read unbounded
// lease churn. The ops:
//
//	{"op":"campaign","campaign":"c1","spec":{...},"shards":4}
//	{"op":"round","campaign":"c1","round":1,"windows":[[24,36],[36,48]]}
//	{"op":"lease","campaign":"c1","lease":"l7","shard":2,"worker":"w1","deadline":...}
//	{"op":"shard","campaign":"c1","shard":2,"recs":[...],"sdc":[...]}
//	{"op":"state","campaign":"c1","state":"done","result":{...}}
//
// A shard record is the commit point of "first journaled result wins":
// the coordinator writes it under its mutex before acknowledging a
// completion, so replay (which keeps the first shard record per index
// and drops the rest) agrees with the live tie-break.
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

// journal serializes appends; a nil *journal (no path configured) is a
// valid no-op sink, so in-memory coordinators skip every durability
// branch.
type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: open journal: %w", err)
	}
	return &journal{f: f, w: bufio.NewWriter(f)}, nil
}

func (jl *journal) append(rec record) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return // unserializable record: skip rather than wedge the cluster
	}
	jl.w.Write(data)
	jl.w.WriteByte('\n')
	jl.w.Flush()
}

func (jl *journal) close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	jl.w.Flush()
	err := jl.f.Close()
	jl.f = nil
	return err
}

// replayJournal folds the journal into the coordinator's campaign
// table. Missing file means a fresh start; malformed lines (a torn
// final write) are skipped, not fatal. Live leases are restored with
// their journaled deadlines — expired ones are swept by the normal
// reassignment path once the coordinator runs.
func replayJournal(path string) (camps []*camp, maxCampSeq, maxLeaseSeq int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("fabric: open journal for replay: %w", err)
	}
	defer f.Close()

	byID := make(map[string]*camp)
	var order []*camp
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // shard records carry SDC bytes
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		switch rec.Op {
		case "campaign":
			if rec.Spec == nil || rec.Campaign == "" || rec.Spec.Validate() != nil || rec.Shards < 1 {
				continue
			}
			if byID[rec.Campaign] != nil {
				continue
			}
			cm := newCamp(rec.Campaign, *rec.Spec, rec.Shards)
			byID[rec.Campaign] = cm
			order = append(order, cm)
			maxCampSeq = maxSeq(maxCampSeq, rec.Campaign, "c")
		case "round":
			cm := byID[rec.Campaign]
			if cm == nil || !cm.spec.Adaptive || len(rec.Windows) == 0 {
				continue
			}
			cm.addRound(rec.Round, rec.Windows)
		case "lease":
			cm := byID[rec.Campaign]
			if cm == nil || rec.Shard < 0 || rec.Shard >= len(cm.shards) || rec.Deadline == nil {
				continue
			}
			sh := cm.shards[rec.Shard]
			if sh.done {
				continue
			}
			sh.leases[rec.Lease] = &lease{
				id: rec.Lease, campaign: cm.id, shard: rec.Shard,
				worker: rec.Worker, deadline: *rec.Deadline,
			}
			maxLeaseSeq = maxSeq(maxLeaseSeq, rec.Lease, "l")
		case "shard":
			cm := byID[rec.Campaign]
			if cm == nil || rec.Shard < 0 || rec.Shard >= len(cm.shards) {
				continue
			}
			sh := cm.shards[rec.Shard]
			if sh.done {
				continue // first journaled result wins
			}
			sh.done = true
			sh.recs = dedupRecords(rec.Recs)
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
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("fabric: replay journal: %w", err)
	}
	return order, maxCampSeq, maxLeaseSeq, nil
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

// dedupRecords sorts records by plan index and keeps the first of any
// duplicates — the resume path rejects duplicate indices outright, so
// a journal that double-recorded a trial (e.g. a compaction racing an
// append) must fold cleanly here.
func dedupRecords(recs []fault.TrialRecord) []fault.TrialRecord {
	if len(recs) == 0 {
		return nil
	}
	out := append([]fault.TrialRecord(nil), recs...)
	sortRecords(out)
	n := 1
	for i := 1; i < len(out); i++ {
		if out[i].Index != out[n-1].Index {
			out[n] = out[i]
			n++
		}
	}
	return out[:n]
}

// sortRecords orders trial records by plan index (insertion over the
// small per-shard slices the fabric moves; workers already send them
// ordered, so this is usually a no-op verification pass).
func sortRecords(recs []fault.TrialRecord) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Index < recs[j-1].Index; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
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

// compactJournal rewrites the snapshot to path atomically, dropping
// the superseded lease/shard churn accumulated before a restart. The
// snapshot is synced before it replaces the live journal; on any write
// error the old journal stays in place.
func compactJournal(path string, camps []*camp) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("fabric: compact journal: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range snapshotRecords(camps) {
		if err = enc.Encode(rec); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fabric: compact journal: %w", err)
	}
	return os.Rename(tmp, path)
}
