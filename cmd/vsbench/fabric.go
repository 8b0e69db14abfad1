package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fabric"
	"vsresil/internal/fault"
	"vsresil/internal/plan"
)

// cluster is the fabric-gpr set-up: a journaled coordinator behind a
// loopback HTTP server and its live workers.
type cluster struct {
	coord   *fabric.Coordinator
	base    string
	journal string
	workers int
}

// fabricGPR runs the fixture's campaigns on an in-process cluster: one
// coordinator and min(2, nproc) workers with one trial worker each, all
// over loopback HTTP. Static campaigns in shards come first, then
// adaptive campaigns (round-shard fanout 2) until the measured time is
// up. The trials are the ones classic-gpr and
// adaptive-gpr run, routed through leases, heartbeats, the coordinator
// journal and merge-by-resume, which isolates distribution overhead.
func fabricGPR(ctx context.Context, b *bench) error {
	var buildNS atomic.Int64
	builder := func(cs fabric.CampaignSpec) (campaign.Workload, error) {
		start := time.Now()
		w, err := fabric.DefaultWorkload(cs)
		buildNS.Add(int64(time.Since(start)))
		if err != nil {
			return w, err
		}
		return b.pipe.decorate(w), nil
	}
	fx, cl, stop, err := setUp(b, func(*fixture) (cluster, func(), error) {
		return b.startCluster(ctx, builder)
	})
	if err != nil {
		return err
	}
	defer stop()

	submitter := &fabric.Client{Base: cl.base, HTTP: b.client("submitter")}
	// run submits campaign k and waits until the coordinator reports it
	// done.
	run := func(k uint64, adaptive bool) (fabricRun, error) {
		r := fabricRun{spec: fabric.CampaignSpec{
			Input: fixtureInput, Scale: "test", Frames: fixtureFrames,
			Class: "gpr", Seed: b.seedFor(k), Workers: 1,
		}}
		shards := b.cfg.size.fabricShards
		if adaptive {
			r.spec.Adaptive = true
			r.spec.Precision, r.spec.Confidence = b.cfg.size.fabricPrec, b.cfg.size.confidence
			shards = b.cfg.size.fanout
		} else {
			r.spec.Trials = b.cfg.size.fabricTrials
		}
		sp := b.tr.open(fmt.Sprintf("fabric/%d", k), 0, "fabric.campaign")
		defer sp.end()
		b.pipe.setScope(sp.s.Trace, sp.id())
		b.attempted++
		t0 := time.Now()
		id, err := submitter.Submit(ctx, r.spec, shards)
		if err != nil {
			b.failed++
			return r, fmt.Errorf("fabric: submit campaign %d: %w", k, err)
		}
		done, rounds, err := awaitCampaign(ctx, cl.coord, id)
		if err != nil {
			b.failed++
			return r, err
		}
		r.id, r.wall, r.rounds = id, done.Sub(t0), rounds
		if b.http != nil {
			b.http.mu.Lock()
			r.finalize = done.Sub(b.http.lastDone)
			b.http.mu.Unlock()
		}
		return r, nil
	}

	var (
		static, adaptive []fabricRun
		measured         time.Duration
		busy, build      int64
		executed         int
	)
	err = b.measure(fx, func() error {
		start := time.Now()
		busy, build = int64(b.pipe.busy()), buildNS.Load()
		k := uint64(0)
		// Static campaigns take the first 40% of the measured time,
		// adaptive ones the rest; at least two of each.
		for ; len(static) < 2 || time.Since(start) < b.cfg.measure*2/5; k++ {
			r, err := run(k, false)
			if err != nil {
				return err
			}
			static = append(static, r)
			executed += r.spec.Trials
			if err := b.spareSetUp(); err != nil {
				return err
			}
		}
		for ; len(adaptive) < 2 || time.Since(start) < b.cfg.measure; k++ {
			r, err := run(k, true)
			if err != nil {
				return err
			}
			if r.recs, err = cl.coord.AdaptiveRecords(r.id); err != nil {
				return err
			}
			adaptive = append(adaptive, r)
			executed += len(r.recs)
			if err := b.spareSetUp(); err != nil {
				return err
			}
		}
		measured = time.Since(start)
		busy, build = int64(b.pipe.busy())-busy, buildNS.Load()-build
		return nil
	})
	if err != nil {
		return err
	}
	var staticTPS, converge, roundMS, finalize []float64
	for _, r := range static {
		staticTPS = append(staticTPS, float64(r.spec.Trials)/r.wall.Seconds())
		finalize = append(finalize, r.finalize.Seconds())
	}
	for _, r := range adaptive {
		converge = append(converge, r.wall.Seconds())
		roundMS = append(roundMS, r.rounds...)
	}
	b.e2e["trials_per_s"] = quantile(staticTPS, fastRate)
	b.e2e["campaign_s"] = quantile(converge, fastTime)
	fmt.Fprintf(os.Stderr, "vsbench: fabric campaigns: %d static, %d adaptive\n", len(static), len(adaptive))

	// The first static campaign's merged records against an unstaged
	// sample, and the first adaptive campaign's records against a local
	// replay of its plan set.
	merged, err := cl.coord.Merged(static[0].id)
	if err != nil {
		return err
	}
	w, golden, err := plainWorkload(static[0].spec)
	if err != nil {
		return err
	}
	st, err := plan.NewStatic(golden, plan.StaticConfig{Class: fault.GPR, Region: fault.RAny, Seed: static[0].spec.Seed, Trials: static[0].spec.Trials})
	if err != nil {
		return err
	}
	staticRecs := records(merged)
	rp, err := replayPlanner(st, staticRecs)
	if err != nil {
		return err
	}
	b.checkSample(ctx, "fabric/static", w.App, golden, rp.plans, staticRecs, b.cfg.seed)

	first := adaptive[0]
	w, golden, err = plainWorkload(first.spec)
	if err != nil {
		return err
	}
	planner, err := plan.NewAdaptive(golden, b.adaptiveConfig(first.spec.Seed, first.spec.Precision))
	if err != nil {
		return err
	}
	arp, err := replayPlanner(planner, first.recs)
	if err != nil {
		b.mismatch("fabric adaptive: %v", err)
		return nil
	}
	replayTPS := b.replayRun(ctx, "fabric/adaptive", w, golden, arp.plans, first.recs)
	b.checkSample(ctx, "fabric/adaptive", w.App, golden, arp.plans, first.recs, b.cfg.seed)

	if !b.cfg.trace {
		return nil
	}
	b.setPipeLayer()
	b.http.mu.Lock()
	var leaseBusy time.Duration
	for _, d := range b.http.leaseBusy {
		leaseBusy += d
	}
	empty := b.http.emptyPoll
	b.http.mu.Unlock()
	// Worker-side executor statistics stay inside the workers; only
	// the decorator's view and the lease timing are visible here.
	b.setExecLayer(execTotals{workerTime: leaseBusy, busy: time.Duration(busy), executed: executed})
	b.setOutcomes(merged.Fault.Counts)
	var pt planTotals
	pt.add(arp)
	b.setPlanLayer(pt)
	b.layer["campaign.round_p50_ms"] = quantile(roundMS, 0.5)
	b.layer["campaign.replay_trials_per_s"] = replayTPS
	b.layer["campaign.driver_gap_ratio"] = replayTPS / (float64(len(first.recs)) / first.wall.Seconds())

	var metrics strings.Builder
	cl.coord.WriteMetrics(&metrics)
	text := metrics.String()
	b.layer["fabric.lease_rtt_p50_ms"] = float64(b.http.rttP50("lease")) / 1e6
	b.layer["fabric.complete_rtt_p50_ms"] = float64(b.http.rttP50("complete")) / 1e6
	b.layer["fabric.heartbeats"] = float64(b.http.count("heartbeat"))
	b.layer["fabric.empty_polls"] = float64(empty)
	b.layer["fabric.worker_idle_ratio"] = 1 - ratio(leaseBusy.Seconds(), float64(cl.workers)*measured.Seconds())
	b.layer["fabric.finalize_s"] = quantile(finalize, 0.5)
	b.layer["fabric.leases_per_shard"] = ratio(scrape(text, "vsd_fabric_leases_issued_total"), scrape(text, "vsd_fabric_shards_total"))
	b.layer["fabric.dup_results"] = scrape(text, "vsd_fabric_duplicate_results_total")
	if fi, err := os.Stat(cl.journal); err == nil {
		b.layer["fabric.journal_bytes"] = float64(fi.Size())
	}
	b.layer["fabric.build_s"] = time.Duration(build).Seconds()
	return b.setTraceOverhead(ctx, fx)
}

// fabricRun is one finished cluster campaign.
type fabricRun struct {
	spec     fabric.CampaignSpec
	id       string
	wall     time.Duration // submit to done
	finalize time.Duration // last shard result to done (traced runs)
	rounds   []float64     // adaptive round durations, ms
	recs     []fault.TrialRecord
}

// startCluster starts a journaled coordinator, its loopback server and
// the workers, all building workloads with builder, and returns the
// function that stops them and waits for every worker to exit.
func (b *bench) startCluster(ctx context.Context, builder fabric.WorkloadBuilder) (cluster, func(), error) {
	dir, err := os.MkdirTemp("", "vsbench-fabric-")
	if err != nil {
		return cluster{}, nil, err
	}
	path := filepath.Join(dir, "fabric.journal")
	coord, err := fabric.NewCoordinator(fabric.Config{JournalPath: path, Workload: builder})
	if err != nil {
		os.RemoveAll(dir)
		return cluster{}, nil, err
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := httptest.NewServer(mux)
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	n := min(2, b.nproc)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("worker-%d", i+1)
		w := &fabric.Worker{
			ID:       id,
			Client:   &fabric.Client{Base: srv.URL, HTTP: b.client(id)},
			Workload: builder,
			// Between adaptive rounds a worker finds no work; a short
			// poll keeps that gap from dominating a round.
			Poll: 10 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	stop := func() {
		cancel()
		wg.Wait()
		srv.Close()
		coord.Close()
		os.RemoveAll(dir)
	}
	return cluster{coord: coord, base: srv.URL, journal: path, workers: n}, stop, nil
}

// awaitCampaign polls the coordinator until the campaign is done and
// returns when it finished plus, for adaptive campaigns, the duration of
// each round (a round starts when its shards appear).
func awaitCampaign(ctx context.Context, coord *fabric.Coordinator, id string) (time.Time, []float64, error) {
	var rounds []float64
	shards, roundStart := 0, time.Now()
	for {
		st, err := coord.Status(id)
		if err != nil {
			return time.Time{}, nil, err
		}
		now := time.Now()
		if st.ShardsTotal != shards {
			if shards != 0 {
				rounds = append(rounds, float64(now.Sub(roundStart))/1e6)
			}
			shards, roundStart = st.ShardsTotal, now
		}
		switch st.State {
		case "done":
			return now, append(rounds, float64(now.Sub(roundStart))/1e6), nil
		case "failed":
			return time.Time{}, nil, fmt.Errorf("fabric: campaign %s failed: %s", id, st.Error)
		}
		select {
		case <-ctx.Done():
			return time.Time{}, nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// plainWorkload builds a cluster campaign's workload locally, exactly
// as every node does, and captures its golden run.
func plainWorkload(cs fabric.CampaignSpec) (campaign.Workload, *fault.GoldenRun, error) {
	w, err := fabric.DefaultWorkload(cs)
	if err != nil {
		return w, nil, err
	}
	golden, err := fault.CaptureGoldenStaged(w.Staged)
	return w, golden, err
}
