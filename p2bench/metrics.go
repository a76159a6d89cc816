package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement. N is the sample count behind a
// percentile or mean (0 when the value is not a statistic over samples).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one workload run reports: the op tally behind the
// correctness verdict, every metric it measured, and the checks that
// failed (empty when the outputs were right).
type result struct {
	Attempted, Failed int
	Problems          []string
	Metrics           []metric
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one human-readable line per metric, with its unit and
// sample count.
func (r *result) print(w io.Writer, workload string) {
	for _, m := range r.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "%-13s %-34s %14.6g %-8s%s\n", workload, m.Name, m.Value, m.Unit, n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-13s CHECK FAILED: %s\n", workload, p)
	}
}

// quantile returns the q-quantile of samples by linear interpolation
// between closest ranks (samples are sorted in place).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return samples[lo] + (samples[hi]-samples[lo])*(pos-float64(lo))
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// ratio divides, reading 0 for an empty denominator: a layer that did
// no work on a workload reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// addLatency reports the median and p99 of op latencies in ms. p99 is
// the highest percentile the run sizes support: every workload issues
// well over 1000 ops, leaving at least ten samples beyond it.
func addLatency(r *result, prefix string, secs []float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1000
	}
	r.add(prefix+"_p50_ms", quantile(ms, 0.50), "ms", len(ms))
	r.add(prefix+"_p99_ms", quantile(ms, 0.99), "ms", len(ms))
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap collects garbage twice (the second pass frees what the
// first pass's finalizers released) and returns the live heap bytes.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// stopwatch measures wall and CPU time across one window.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

func (s stopwatch) stop() (wall, cpu float64) {
	return time.Since(s.wall).Seconds(), cpuSeconds() - s.cpu
}
