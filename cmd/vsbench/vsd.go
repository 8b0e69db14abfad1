package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/plan"
	"vsresil/internal/service"
	"vsresil/internal/virat"
)

// vsdCell is one of the job shapes the open-loop generator draws from:
// a capture scenario, a paper input and a summarizer with its trial
// budget. The campaign seed (which the service also uses as the app
// seed) is fixed per cell, so the service's 16-entry golden cache sees
// one key per cell. It does not depend on -seed either: every run
// injects the same 24 campaigns, and the seed moves only the arrival
// times and order, so runs differ in load shape, not in trial mix.
type vsdCell struct {
	scenario, summarizer string
	input, trials        int
	seed                 uint64
}

// vsdCells is 6 scenarios x 2 inputs x {vs, storyboard}: 24 cells.
func (b *bench) vsdCells() []vsdCell {
	var cells []vsdCell
	for _, sc := range virat.ScenarioNames() {
		for _, input := range []int{1, 2} {
			for _, sum := range []string{"vs", "storyboard"} {
				trials := b.cfg.size.vsTrials
				if sum == "storyboard" {
					trials = b.cfg.size.storyTrials
				}
				cells = append(cells, vsdCell{sc, sum, input, trials, fixtureAppSeed + uint64(len(cells))})
			}
		}
	}
	return cells
}

// job is the wire submission for the cell. The empty region is the
// whole application.
func (c vsdCell) job() service.JobSpec {
	return service.JobSpec{Type: service.JobCampaign, Campaign: &service.CampaignSpec{
		InputSpec:  service.InputSpec{Input: c.input, Scale: "test", Frames: fixtureFrames, Scenario: c.scenario},
		Summarizer: c.summarizer,
		Class:      "gpr",
		Trials:     c.trials,
		Seed:       c.seed,
		Workers:    1,
	}}
}

// Open-loop phases: a warm-up that is not reported, then two fixed
// arrival rates.
const (
	phaseWarm = iota
	phaseLight
	phaseHeavy
)

var phaseNames = [...]string{"warmup", "light", "heavy"}

// vsdJob is one scheduled arrival and what became of it.
type vsdJob struct {
	phase, cell int
	at          time.Duration // scheduled offset from the generator's start
	due         time.Time
	late        time.Duration
	id          string
	err         error
	st          service.JobStatus
}

// schedule draws the arrivals from -seed: Poisson at the light rate
// through the warm-up (the first 10% of the measured time) and the
// light phase (the next 45%), at the heavy rate for the rest. Cells
// arrive in shuffled rounds that each contain every cell once, so the
// seed changes the order but not the mix of job shapes.
func (b *bench) schedule(ncells int) []*vsdJob {
	rng := rand.New(rand.NewPCG(b.cfg.seed, 0x75d))
	total := b.cfg.measure
	warmEnd, lightEnd := total/10, total*55/100
	var jobs []*vsdJob
	var round []int
	for t := time.Duration(0); ; {
		rate := b.cfg.size.lightRate
		if t >= lightEnd {
			rate = b.cfg.size.heavyRate
		}
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= total {
			return jobs
		}
		phase := phaseHeavy
		switch {
		case t < warmEnd:
			phase = phaseWarm
		case t < lightEnd:
			phase = phaseLight
		}
		if len(round) == 0 {
			round = rng.Perm(ncells)
		}
		jobs = append(jobs, &vsdJob{phase: phase, cell: round[0], at: t})
		round = round[1:]
	}
}

// vsdMixed drives service.New (journal on, min(2, nproc) job workers)
// behind a loopback HTTP server with open-loop Poisson arrivals of many
// short campaign jobs. Per-job set-up, journal appends, HTTP and a
// golden cache with more keys than entries all matter here; a
// storyboard trial costs tens of microseconds, so service overhead
// dominates those jobs. Latency runs from an arrival's scheduled time to
// the job's server-side FinishedAt.
func vsdMixed(ctx context.Context, b *bench) error {
	fx, srv, stop, err := setUp(b, func(*fixture) (vsdServer, func(), error) {
		return b.startService(ctx)
	})
	if err != nil {
		return err
	}
	defer stop()
	base, journal := srv.base, srv.journal

	cl := b.client("vsd-client")
	cells := b.vsdCells()
	jobs := b.schedule(len(cells))
	var appended int64
	err = b.measure(fx, func() error {
		start := time.Now()
		for _, j := range jobs {
			j.due = start.Add(j.at)
			time.Sleep(time.Until(j.due))
			j.late = time.Since(j.due)
			b.attempted++
			j.id, j.err = submitJob(ctx, cl, base, cells[j.cell].job())
		}
		var err error
		appended, err = awaitJobs(ctx, cl, base, journal, jobs, b.cfg.measure+2*time.Minute)
		return err
	})
	if err != nil {
		return err
	}

	var (
		lat     [len(phaseNames)][]float64
		waits   []float64
		runs    []float64
		trials  int
		runTime float64
		allDone int
	)
	for _, j := range jobs {
		if j.err == nil && j.st.State == service.StateDone {
			allDone += cells[j.cell].trials
		}
		if j.phase == phaseWarm {
			continue
		}
		if j.err != nil || j.st.State != service.StateDone || j.st.StartedAt == nil || j.st.FinishedAt == nil {
			// A failed or refused job misses every latency limit.
			b.failed++
			lat[j.phase] = append(lat[j.phase], math.Inf(1))
			continue
		}
		lat[j.phase] = append(lat[j.phase], j.st.FinishedAt.Sub(j.due).Seconds())
		waits = append(waits, j.st.StartedAt.Sub(j.st.EnqueuedAt).Seconds())
		run := j.st.FinishedAt.Sub(*j.st.StartedAt).Seconds()
		runs = append(runs, run)
		trials += cells[j.cell].trials
		runTime += run
	}
	measured := append(append([]float64(nil), lat[phaseLight]...), lat[phaseHeavy]...)
	b.e2e["trials_per_s"] = ratio(float64(trials), runTime)
	b.e2e["campaign_s"] = quantile(measured, 0.5)
	fmt.Fprintf(os.Stderr, "vsbench: vsd jobs: %d warm-up, %d light, %d heavy\n",
		len(jobs)-len(measured), len(lat[phaseLight]), len(lat[phaseHeavy]))

	// One job per reported phase is re-run locally through
	// campaign.Runner; its outcome counts must match the service's.
	var (
		ex               execTotals
		pt               planTotals
		walls            []float64
		localT, remoteT  float64
		localN           int
		firstCounts      [fault.NumOutcomes]int
		firstCountsKnown bool
	)
	for _, phase := range []int{phaseLight, phaseHeavy} {
		j := firstDone(jobs, phase)
		if j == nil {
			continue
		}
		cell := cells[j.cell]
		var got service.CampaignResult
		if err := getJSON(ctx, cl, base+"/v1/jobs/"+j.id+"/result", &got); err != nil {
			return err
		}
		sp := b.tr.open("vsd/"+j.id, 0, "campaign.recheck")
		b.pipe.setScope(sp.s.Trace, sp.id())
		res, golden, plain, err := b.rerunCell(ctx, cell)
		sp.end()
		if err != nil {
			return err
		}
		b.attempted++
		for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
			if got.Counts[o.String()] != res.Fault.Counts[o] {
				b.mismatch("vsd %s job %s (%s/%s input %d): service counts %v, local %v",
					phaseNames[phase], j.id, cell.scenario, cell.summarizer, cell.input, got.Counts, res.Fault.Counts)
				break
			}
		}
		if !firstCountsKnown {
			firstCounts, firstCountsKnown = res.Fault.Counts, true
		}
		static, err := plan.NewStatic(golden, plan.StaticConfig{Class: fault.GPR, Region: fault.RAny, Seed: cell.seed, Trials: cell.trials})
		if err != nil {
			return err
		}
		recs := records(res)
		rp, err := replayPlanner(static, recs)
		if err != nil {
			b.mismatch("vsd job %s: %v", j.id, err)
			continue
		}
		pt.add(rp)
		b.checkSample(ctx, "vsd/"+j.id, plain.App, golden, rp.plans, recs, b.cfg.seed)

		walls = append(walls, res.Elapsed.Seconds())
		ex.workerTime += res.Elapsed
		ex.executed += res.Executed
		ex.buckets += res.Fault.Sched.Buckets
		ex.batched += res.Fault.Sched.Batched
		ex.prepMisses += uint64(res.Fault.Sched.Buckets)
		localT += res.Elapsed.Seconds()
		remoteT += j.st.FinishedAt.Sub(*j.st.StartedAt).Seconds()
		localN += res.Executed
	}

	if !b.cfg.trace {
		return nil
	}
	b.setPipeLayer()
	ex.busy = b.pipe.busy()
	b.setExecLayer(ex)
	b.setOutcomes(firstCounts)
	b.setPlanLayer(pt)
	b.layer["campaign.round_p50_ms"] = quantile(walls, 0.5) * 1e3
	b.layer["campaign.replay_trials_per_s"] = ratio(float64(localN), localT)
	// Same jobs, same single trial worker: how much faster the bare
	// engine runs them than the service does.
	b.layer["campaign.driver_gap_ratio"] = ratio(remoteT, localT)

	b.layer["service.queue_wait_p50_s"] = quantile(waits, 0.5)
	b.layer["service.queue_wait_p90_s"] = quantile(waits, 0.9)
	b.layer["service.run_p50_s"] = quantile(runs, 0.5)
	b.layer["service.job_p50_s.light"] = quantile(lat[phaseLight], 0.5)
	b.layer["service.job_p90_s.light"] = quantile(lat[phaseLight], 0.9)
	b.layer["service.job_p50_s.heavy"] = quantile(lat[phaseHeavy], 0.5)
	b.layer["service.job_p90_s.heavy"] = quantile(lat[phaseHeavy], 0.9)
	b.layer["service.jobs.light"] = float64(len(lat[phaseLight]))
	b.layer["service.jobs.heavy"] = float64(len(lat[phaseHeavy]))
	b.layer["service.submit_rtt_p50_ms"] = float64(b.http.rttP50("submit")) / 1e6
	b.layer["service.status_rtt_p50_ms"] = float64(b.http.rttP50("status")) / 1e6
	b.layer["service.journal_bytes_per_trial"] = ratio(float64(appended), float64(allDone))
	var lateMax time.Duration
	for _, j := range jobs {
		lateMax = max(lateMax, j.late)
	}
	b.layer["service.generator_late_ms_max"] = float64(lateMax) / 1e6
	text, err := getBody(ctx, cl, base+"/metrics")
	if err != nil {
		return err
	}
	hits, misses := scrape(text, "vsd_golden_cache_hits_total"), scrape(text, "vsd_golden_cache_misses_total")
	b.layer["service.golden_hit_ratio"] = ratio(hits, hits+misses)
	return b.setTraceOverhead(ctx, fx)
}

// vsdServer is the vsd-mixed set-up: a journaled service behind a
// loopback HTTP server.
type vsdServer struct {
	base, journal string
}

// startService starts the service and its server, waits until it
// answers, and returns the function that shuts both down.
func (b *bench) startService(ctx context.Context) (vsdServer, func(), error) {
	dir, err := os.MkdirTemp("", "vsbench-vsd-")
	if err != nil {
		return vsdServer{}, nil, err
	}
	path := filepath.Join(dir, "vsd.journal")
	svc, err := service.New(service.Config{Workers: min(2, b.nproc), JournalPath: path})
	if err != nil {
		os.RemoveAll(dir)
		return vsdServer{}, nil, err
	}
	srv := httptest.NewServer(svc.Handler())
	stop := func() {
		srv.Close()
		svc.Shutdown(context.Background())
		os.RemoveAll(dir)
	}
	if _, err := getBody(ctx, b.client("setup"), srv.URL+"/healthz"); err != nil {
		stop()
		return vsdServer{}, nil, err
	}
	return vsdServer{base: srv.URL, journal: path}, stop, nil
}

// rerunCell runs the cell's campaign locally on one trial worker, as
// the service runs it, through a freshly built workload. It returns the
// result, the golden run and the undecorated workload.
func (b *bench) rerunCell(ctx context.Context, c vsdCell) (*campaign.Result, *fault.GoldenRun, campaign.Workload, error) {
	p := virat.TestScale()
	p.Frames = fixtureFrames
	w, err := campaign.Cell{Scenario: c.scenario, Summarizer: c.summarizer}.Workload(c.input, p, c.seed)
	if err != nil {
		return nil, nil, w, err
	}
	work := b.pipe.decorate(w)
	golden, err := fault.CaptureGoldenStaged(work.Staged)
	if err != nil {
		return nil, nil, w, err
	}
	res, err := b.runner.Run(ctx, campaign.Spec{
		Workload: work, Class: fault.GPR, Region: fault.RAny,
		Trials: c.trials, Seed: c.seed, Workers: 1, Golden: golden,
	})
	return res, golden, w, err
}

// firstDone returns the phase's earliest-scheduled finished job.
func firstDone(jobs []*vsdJob, phase int) *vsdJob {
	for _, j := range jobs {
		if j.phase == phase && j.err == nil && j.st.State == service.StateDone {
			return j
		}
	}
	return nil
}

// awaitJobs polls the job list until every submitted job is terminal,
// then fetches each job's status. It returns the journal bytes appended
// meanwhile (growth summed between polls; compactions shrink the file
// and are skipped).
func awaitJobs(ctx context.Context, cl *http.Client, base, journal string, jobs []*vsdJob, limit time.Duration) (int64, error) {
	deadline := time.Now().Add(limit)
	var appended, size int64
	for {
		if fi, err := os.Stat(journal); err == nil {
			if fi.Size() > size {
				appended += fi.Size() - size
			}
			size = fi.Size()
		}
		var list struct {
			Jobs []service.JobStatus `json:"jobs"`
		}
		if err := getJSON(ctx, cl, base+"/v1/jobs", &list); err != nil {
			return 0, err
		}
		state := make(map[string]service.JobState, len(list.Jobs))
		for _, st := range list.Jobs {
			state[st.ID] = st.State
		}
		pending := 0
		for _, j := range jobs {
			if s := state[j.id]; j.err == nil && s != service.StateDone && s != service.StateFailed && s != service.StateCanceled {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("vsd: %d jobs still pending after %v", pending, limit)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, j := range jobs {
		if j.err == nil {
			if err := getJSON(ctx, cl, base+"/v1/jobs/"+j.id, &j.st); err != nil {
				return 0, err
			}
		}
	}
	return appended, nil
}

func submitJob(ctx context.Context, cl *http.Client, base string, spec service.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("vsd: submit: HTTP %d: %s", resp.StatusCode, data)
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func getBody(ctx context.Context, cl *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	return string(data), nil
}

func getJSON(ctx context.Context, cl *http.Client, url string, into any) error {
	body, err := getBody(ctx, cl, url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), into)
}

// scrape returns the value of an unlabeled series in a text exposition
// (0 when absent).
func scrape(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}
