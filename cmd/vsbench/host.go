package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"vsresil/internal/fault"
	"vsresil/internal/probe"
)

// sampleLiveHeap samples the live heap (as of the latest GC) every
// 100ms until the returned function is called, which stops the sampler
// and returns the median sample in MiB. The median, not the peak: a
// fault can corrupt a size and make one trial allocate a canvas of
// hundreds of MiB, so the peak reports which faults ran, not how much
// memory the program needs.
func sampleLiveHeap() func() float64 {
	read := func() float64 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(s[0].Value.Uint64()) / (1 << 20)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				samples = append(samples, read())
				return
			case <-t.C:
				samples = append(samples, read())
			}
		}
	}()
	return func() float64 {
		close(stop)
		<-done
		return quantile(samples, 0.5)
	}
}

// cpuTimes is the machine-wide CPU time split from /proc/stat, in
// clock ticks.
type cpuTimes struct {
	steal, total uint64
}

// readCPU returns the aggregate "cpu" line of /proc/stat; on systems
// without it the zero value is returned and the steal ratio reads 0.
func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealRatio is the share of CPU time the hypervisor withheld between
// two readings.
func stealRatio(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// pipelineMS runs the fixture pipeline fault-free once per sink, runs
// times in alternation, and returns each sink's median wall time in
// milliseconds. Alternating keeps host drift out of their ratio.
func pipelineMS(fx *fixture, runs int, sinks ...func() probe.Sink) ([]float64, error) {
	times := make([][]float64, len(sinks))
	for i := 0; i < runs; i++ {
		for j, sink := range sinks {
			start := time.Now()
			if _, err := fx.vsApp.Run(fx.frames, sink()); err != nil {
				return nil, err
			}
			times[j] = append(times[j], float64(time.Since(start))/1e6)
		}
	}
	med := make([]float64, len(sinks))
	for j := range med {
		med[j] = quantile(times[j], 0.5)
	}
	return med, nil
}

func nopSink() probe.Sink { return probe.Nop{} }

// nopPipelineMS is the host-speed probe: the uninstrumented pipeline on
// the fixture input, median of 5. It moves only when the machine does.
func nopPipelineMS(fx *fixture) (float64, error) {
	ms, err := pipelineMS(fx, 5, nopSink)
	if err != nil {
		return 0, err
	}
	return ms[0], nil
}

// tapOverheadRatio compares the fixture pipeline under a fault machine
// with no plan against the probe.Nop fast path: the cost of the tap
// layer every trial pays.
func tapOverheadRatio(fx *fixture) (float64, error) {
	ms, err := pipelineMS(fx, 15, nopSink, func() probe.Sink { return fault.New() })
	if err != nil {
		return 0, err
	}
	return ms[1] / ms[0], nil
}

// quantile returns the q-quantile of xs by the nearest-rank method
// (+Inf entries sort last, so failed requests count as missing any
// latency limit). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
