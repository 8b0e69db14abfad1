package fabric

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

// Worker joins a coordinator and executes leased round-shards through
// the campaign engine. One Worker runs one shard at a time; its trial
// parallelism inside the shard comes from the spec's Workers field.
type Worker struct {
	// ID names this worker in leases and metrics.
	ID string
	// Client reaches the coordinator.
	Client *Client
	// Runner opens the per-campaign executor sessions. nil gets a
	// private runner with a small golden cache, so campaigns over the
	// same workload skip the fault-free capture.
	Runner *campaign.Runner
	// Workload maps wire specs to workloads (default DefaultWorkload);
	// must match the coordinator's builder.
	Workload WorkloadBuilder
	// Poll is the idle backoff between lease requests when the cluster
	// has no work (default 500ms).
	Poll time.Duration
	// OnLease, if set, observes every granted lease (test hook).
	OnLease func(l Lease)
}

// Run pulls leases until ctx is canceled. Transient coordinator errors
// (it may be restarting) back off and retry; a canceled context is the
// only way out.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		return fmt.Errorf("fabric: worker %q has no client", w.ID)
	}
	build := w.Workload
	if build == nil {
		build = DefaultWorkload
	}
	runner := w.Runner
	if runner == nil {
		runner = &campaign.Runner{Goldens: campaign.NewGoldenCache(4)}
	}
	sessions := &workerSessions{runner: runner, build: build}
	defer sessions.close()
	poll := w.pollInterval()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		l, ok, err := w.Client.Lease(ctx, w.ID)
		if err != nil || !ok {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if w.OnLease != nil {
			w.OnLease(l)
		}
		w.runLease(ctx, sessions, l)
	}
}

// pollInterval is the idle backoff between lease requests: Poll, or
// 500ms when unset.
func (w *Worker) pollInterval() time.Duration {
	if w.Poll <= 0 {
		return 500 * time.Millisecond
	}
	return w.Poll
}

// workerSessions caches one open executor session per campaign (the
// latest): successive round-shard leases of the same campaign — static
// or adaptive — reuse the workload, golden resolution, worker pool and
// bucket preparations instead of paying the full cold start per lease. One
// worker runs one lease at a time, so a single slot is exactly the
// working set; a lease for a different campaign closes the old session
// and opens the session for the new one.
type workerSessions struct {
	runner *campaign.Runner
	build  WorkloadBuilder
	cur    *leaseSession
}

// leaseSession is the cached campaign execution state: the open
// session and its trial counter, which the session's OnTrial advances
// for every executed trial of every lease.
type leaseSession struct {
	campaign string
	sess     *fault.Session
	done     atomic.Int64
}

// acquire returns the session for l's campaign, opening one (and
// retiring the previous campaign's) if needed. Plan windows come per
// lease.
func (c *workerSessions) acquire(l Lease) (*leaseSession, error) {
	if c.cur != nil && c.cur.campaign == l.Campaign {
		return c.cur, nil
	}
	c.close()
	spec, err := engineSpec(c.build, l.Spec)
	if err != nil {
		return nil, err
	}
	ls := &leaseSession{campaign: l.Campaign}
	spec.OnTrial = func(fault.TrialRecord) { ls.done.Add(1) }
	if ls.sess, err = c.runner.OpenSession(spec); err != nil {
		return nil, err
	}
	c.cur = ls
	return ls, nil
}

// close retires the cached session, if any.
func (c *workerSessions) close() {
	if c.cur != nil {
		c.cur.sess.Close()
		c.cur = nil
	}
}

// runLease executes one leased round-shard — exactly the shipped
// plans, on the worker's cached campaign session — and submits the
// result. Failures are not reported back — the lease simply expires
// and the shard is reassigned, which is the same path a worker crash
// takes.
func (w *Worker) runLease(ctx context.Context, sessions *workerSessions, l Lease) {
	ls, err := sessions.acquire(l)
	if err != nil {
		return
	}
	// The session's counter spans every lease it served; this lease's
	// progress is what it added since the lease started.
	start := ls.done.Load()

	// Heartbeat at TTL/3 so two beats can be lost before the lease
	// expires. A "lost" answer means the shard completed elsewhere or
	// the lease was reassigned: abandon the run. A duplicate usually
	// loses to the copy it races, which had a head start; idle, this
	// worker would poll at pollInterval, so it beats at that rate and is
	// free for the next lease within a beat of the other copy
	// completing, instead of finishing a shard nobody needs.
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := l.TTL / 3
		if interval <= 0 {
			interval = DefaultLeaseTTL / 3
		}
		if l.Duplicate {
			interval = min(interval, w.pollInterval())
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
				ok, err := w.Client.Heartbeat(leaseCtx, w.ID, l.ID, int(ls.done.Load()-start))
				if err == nil && !ok {
					cancel()
					return
				}
			}
		}
	}()

	res, err := ls.sess.Run(leaseCtx, fault.Config{Plans: l.Plans, PlanOffset: l.PlanLo})
	cancel()
	<-hbDone
	if err != nil {
		return
	}

	// Ship back the shard's checkpoint records (plan-indexed) and
	// whatever SDC outputs the retention policy kept. Everything else
	// — histograms, curve, crash split — regenerates bit-identically
	// on the coordinator from these plus the seed.
	out := ShardResult{
		Worker:   w.ID,
		Lease:    l.ID,
		Campaign: l.Campaign,
		Shard:    l.ShardIndex,
		Recs:     make([]fault.TrialRecord, 0, len(res.Trials)),
	}
	for i := range res.Trials {
		t := &res.Trials[i]
		out.Recs = append(out.Recs, t.Record(l.PlanLo+i))
		if t.Output != nil {
			out.SDC = append(out.SDC, SDCOutput{Index: l.PlanLo + i, Data: t.Output})
		}
	}
	// Completion races the coordinator's expiry and any thief; losing
	// is harmless because every completion of this shard is
	// bit-identical.
	w.Client.Complete(ctx, out)
}
