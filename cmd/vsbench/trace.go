package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

// tracer keeps the spans of one traced run in memory; writeFile puts
// them on disk when the run ends. A nil *tracer is the untraced run:
// every method is a no-op, so workload code calls it unconditionally.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Spans of one campaign or job
// share Trace; Parent is the span that caused this one (0 = root).
// Start and End are nanoseconds since the tracer started.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes and records it.
type spanRef struct {
	t *tracer
	s span
}

// open starts a span now.
func (t *tracer) open(trace string, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, s: span{Trace: trace, ID: t.next.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.t0))}}
}

func (r spanRef) id() int64 { return r.s.ID }

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	r.s.End = int64(time.Since(r.t.t0))
	r.t.add(r.s)
}

// record adds a span whose start and end were measured by the caller.
func (t *tracer) record(trace string, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Trace: trace, ID: t.next.Add(1), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfSeconds sums, per span name, each span's duration minus the part
// of its interval that its child spans cover.
func selfSeconds(spans []span) map[string]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(s, kids[s.ID])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of p's interval the union of
// kids' intervals covers.
func covered(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// writeFile writes every span plus the per-name self times as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		SelfSeconds map[string]float64 `json:"self_s"`
		Spans       []span             `json:"spans"`
	}{selfSeconds(t.spans), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Pipeline stages, in execution order. A stage runs from the boundary
// callback that names it to the next boundary or the end of the call;
// boundary names are "<stage>" or "<stage>[i]".
var stageNames = [...]string{"decode", "features", "align", "pair", "composite"}

const numStages = len(stageNames)

// stageOf maps a boundary name to its stage index, or -1 for stages of
// other summarizers.
func stageOf(boundary string) int {
	if i := strings.IndexByte(boundary, '['); i >= 0 {
		boundary = boundary[:i]
	}
	for i, s := range stageNames {
		if s == boundary {
			return i
		}
	}
	return -1
}

// pipeStats is the pipeline decorator's state: it wraps a workload's
// fault.App and StagedApp (and, when the app has it, the BatchStagedApp
// seam) and times every call the executor makes into them. Counters are
// updated from concurrent trial workers.
type pipeStats struct {
	tr    *tracer
	scope atomic.Pointer[scope]

	fullRuns, fullNS    atomic.Int64
	resumes, resumeNS   atomic.Int64
	prepCalls, prepNS   atomic.Int64
	eqNS                atomic.Int64
	boundaries          atomic.Int64
	converged, earlyMsk atomic.Int64
	suffixNS            [numStages]atomic.Int64

	mu           sync.Mutex
	resumeDur    []time.Duration
	goldenDur    []time.Duration
	goldenStages [][numStages]time.Duration
}

// scope names the campaign the executor is currently running, so trial
// spans join its trace.
type scope struct {
	trace  string
	parent int64
}

func newPipeStats(tr *tracer) *pipeStats { return &pipeStats{tr: tr} }

func (p *pipeStats) setScope(trace string, parent int64) {
	if p != nil {
		p.scope.Store(&scope{trace, parent})
	}
}

// busy is the time spent inside the application by trial executions.
func (p *pipeStats) busy() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.fullNS.Load() + p.resumeNS.Load())
}

// decorate wraps w so every call into its pipeline is timed. The
// wrapped workload keeps w's name and golden-cache key, and offers the
// BatchStagedApp seam exactly when w does, so the executor schedules it
// identically. A nil receiver returns w unchanged.
func (p *pipeStats) decorate(w campaign.Workload) campaign.Workload {
	if p == nil {
		return w
	}
	app := w.App
	w.App = func(m *fault.Machine) ([]byte, error) {
		c := newCall(-1)
		defer func() { p.endTrial(c, recover(), false, false) }()
		return app(m)
	}
	if w.Staged != nil {
		s := &stagedDecor{p: p, inner: w.Staged}
		if b, ok := w.Staged.(fault.BatchStagedApp); ok {
			w.Staged = &batchDecor{stagedDecor: s, batch: b}
		} else {
			w.Staged = s
		}
	}
	return w
}

// call times one decorated call and splits it across the pipeline
// stages at the boundary callbacks it passes through.
type call struct {
	start, last time.Time
	stage       int
	stages      [numStages]time.Duration
	boundaries  int64
}

func newCall(stage int) *call {
	now := time.Now()
	return &call{start: now, last: now, stage: stage}
}

func (c *call) boundary(name string) {
	c.lap(time.Now())
	c.stage = stageOf(name)
	c.boundaries++
}

func (c *call) lap(now time.Time) {
	if c.stage >= 0 {
		c.stages[c.stage] += now.Sub(c.last)
	}
	c.last = now
}

// endTrial records a finished trial execution. r is the recovered
// panic value, if any: the fault executor classifies early masks,
// hangs and crashes by recovering these panics, so endTrial re-raises
// r unchanged after recording it.
func (p *pipeStats) endTrial(c *call, r any, resumed, converged bool) {
	now := time.Now()
	c.lap(now)
	d := now.Sub(c.start)
	name := "vs.full"
	if resumed {
		name = "vs.resume"
		p.resumes.Add(1)
		p.resumeNS.Add(int64(d))
		p.boundaries.Add(c.boundaries)
		for i, s := range c.stages {
			if s != 0 {
				p.suffixNS[i].Add(int64(s))
			}
		}
		p.mu.Lock()
		p.resumeDur = append(p.resumeDur, d)
		p.mu.Unlock()
	} else {
		p.fullRuns.Add(1)
		p.fullNS.Add(int64(d))
	}
	if converged {
		p.converged.Add(1)
	}
	if r != nil && fmt.Sprintf("%T", r) == "fault.maskResolved" {
		p.earlyMsk.Add(1)
	}
	sc := p.scope.Load()
	if sc == nil {
		sc = &scope{trace: "-"}
	}
	p.tr.record(sc.trace, sc.parent, name, c.start, now)
	if r != nil {
		panic(r)
	}
}

// stagedDecor is the decorated fault.StagedApp.
type stagedDecor struct {
	p     *pipeStats
	inner fault.StagedApp
}

// RunFull is the golden capture: the time before the first boundary is
// the decode stage.
func (s *stagedDecor) RunFull(m *fault.Machine, snap func(name string, state any)) ([]byte, error) {
	c := newCall(0)
	hook := snap
	if snap != nil {
		hook = func(name string, state any) {
			c.boundary(name)
			snap(name, state)
		}
	}
	defer func() {
		r := recover()
		now := time.Now()
		c.lap(now)
		s.p.mu.Lock()
		s.p.goldenDur = append(s.p.goldenDur, now.Sub(c.start))
		s.p.goldenStages = append(s.p.goldenStages, c.stages)
		s.p.mu.Unlock()
		s.p.tr.record("golden", 0, "vs.golden", c.start, now)
		if r != nil {
			panic(r)
		}
	}()
	return s.inner.RunFull(m, hook)
}

func (s *stagedDecor) Resume(m *fault.Machine, state any) ([]byte, error) {
	c := newCall(-1)
	defer func() { s.p.endTrial(c, recover(), true, false) }()
	return s.inner.Resume(m, state)
}

// batchDecor is the decorated fault.BatchStagedApp.
type batchDecor struct {
	*stagedDecor
	batch fault.BatchStagedApp
}

func (b *batchDecor) PrepareResume(state any) any {
	start := time.Now()
	defer func() {
		now := time.Now()
		b.p.prepCalls.Add(1)
		b.p.prepNS.Add(int64(now.Sub(start)))
		b.p.tr.record("prepare", 0, "vs.prepare", start, now)
	}()
	return b.batch.PrepareResume(state)
}

func (b *batchDecor) ResumeGuarded(m *fault.Machine, state, prep any, guard fault.BoundaryGuard) (out []byte, converged bool, err error) {
	c := newCall(-1)
	hook := guard
	if guard != nil {
		hook = func(name string, state any) bool {
			c.boundary(name)
			return guard(name, state)
		}
	}
	defer func() { b.p.endTrial(c, recover(), true, converged) }()
	return b.batch.ResumeGuarded(m, state, prep, hook)
}

func (b *batchDecor) StateEqual(x, y any) bool {
	start := time.Now()
	eq := b.batch.StateEqual(x, y)
	b.p.eqNS.Add(int64(time.Since(start)))
	return eq
}

// httpStats times the requests the benchmark's HTTP clients send, by
// endpoint, and for fabric workers how long each spent between being
// granted a lease and submitting its result.
type httpStats struct {
	tr *tracer

	mu        sync.Mutex
	rtt       map[string][]time.Duration
	emptyPoll int
	leaseAt   map[string]time.Time
	leaseBusy map[string]time.Duration
	lastDone  time.Time
}

func newHTTPStats(tr *tracer) *httpStats {
	return &httpStats{
		tr:        tr,
		rtt:       make(map[string][]time.Duration),
		leaseAt:   make(map[string]time.Time),
		leaseBusy: make(map[string]time.Duration),
	}
}

// timedTransport forwards to the shared transport and reports each
// round trip (request sent to response headers received) to stats on
// behalf of client who.
type timedTransport struct {
	next  http.RoundTripper
	stats *httpStats
	who   string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	code := 0
	if err == nil {
		code = resp.StatusCode
	}
	t.stats.observe(t.who, endpoint(req), code, start, end)
	return resp, err
}

// endpoint classifies a request by the API call it makes.
func endpoint(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case req.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/") && !strings.HasSuffix(p, "/result"):
		return "status"
	case p == "/v1/fabric/lease":
		return "lease"
	case p == "/v1/fabric/heartbeat":
		return "heartbeat"
	case p == "/v1/fabric/results":
		return "complete"
	case p == "/v1/fabric/campaigns":
		return "fabric-submit"
	default:
		return "other"
	}
}

func (h *httpStats) observe(who, kind string, code int, start, end time.Time) {
	h.mu.Lock()
	h.rtt[kind] = append(h.rtt[kind], end.Sub(start))
	switch kind {
	case "lease":
		if code == http.StatusNoContent {
			h.emptyPoll++
		} else if code == http.StatusOK {
			h.leaseAt[who] = end
		}
	case "complete":
		if at, ok := h.leaseAt[who]; ok {
			h.leaseBusy[who] += start.Sub(at)
			delete(h.leaseAt, who)
		}
		h.lastDone = end
	}
	h.mu.Unlock()
	h.tr.record(who, 0, "http."+kind, start, end)
}

// rttP50 returns the median round trip of one endpoint kind.
func (h *httpStats) rttP50(kind string) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return durQuantile(h.rtt[kind], 0.5)
}

func (h *httpStats) count(kind string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.rtt[kind])
}
