package main

import (
	"bytes"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// Runtime counters read around every span. Both allocation counters are
// cumulative since process start, so a span's cost is a difference.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

// counters is one reading of runtimeSamples.
type counters struct {
	allocs, bytes uint64
	gcCPU         float64
}

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		allocs: s[0].Value.Uint64(),
		bytes:  s[1].Value.Uint64(),
		gcCPU:  s[2].Value.Float64(),
	}
}

// sample is one measured call: its wall time and what it allocated.
type sample struct {
	wall          time.Duration
	allocs, bytes uint64
}

// measure times fn and reads the allocation counters around it.
func measure(fn func()) sample {
	before := readCounters()
	start := time.Now()
	fn()
	wall := time.Since(start)
	after := readCounters()
	return sample{wall: wall, allocs: after.allocs - before.allocs, bytes: after.bytes - before.bytes}
}

// span is one timed call into a layer's public functions.
type span struct {
	stem     string // allocation metric stem, e.g. "btsim.mingle"
	timeName string // wall-time metric name, e.g. "btsim.mingle_s"
	sample
}

// tracer records spans in memory; they are turned into metrics when the
// traced run ends.
type tracer struct {
	spans []span
}

// do runs fn inside a span. Spans are sequential: the benchmark never
// traces calls that run concurrently with each other.
func (t *tracer) do(stem, timeName string, fn func()) {
	t.spans = append(t.spans, span{stem: stem, timeName: timeName, sample: measure(fn)})
}

// covered is the wall time the recorded spans cover.
func (t *tracer) covered() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		d += s.wall
	}
	return d
}

// spanMetrics reports each span's wall time, allocated objects and
// allocated megabytes.
func (t *tracer) spanMetrics(m metricSet) {
	for _, s := range t.spans {
		m.set(s.timeName, s.wall.Seconds(), "s")
		m.set(s.stem+".allocs", float64(s.allocs), "count")
		m.set(s.stem+".alloc_mb", float64(s.bytes)/(1<<20), "MB")
	}
}

// profiledPackages are the packages a CPU profile is aggregated into;
// samples attributed to any other package count as "other", so the
// shares sum to 100%.
var profiledPackages = []string{"nat", "traffic", "fleet", "dht", "krpc", "simnet", "btsim", "crawler", "runtime"}

// cpuProfile samples the CPU while fn runs and returns the share of
// samples per package and the CPU seconds the garbage collector spent
// meanwhile. A sample whose leaf frame is in the runtime
// (allocation, GC, scheduling) counts for "runtime"; any other sample
// counts for the innermost frame in one of the repository's packages,
// so standard-library helpers such as sort bill their caller.
func cpuProfile(fn func()) (map[string]float64, float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	gc0 := readCounters().gcCPU
	fn()
	gcCPU := readCounters().gcCPU - gc0
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	weight := make(map[string]int64)
	var total int64
	for _, s := range samples {
		weight[attribute(s.stack)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(profiledPackages)+1)
	for _, pkg := range append(profiledPackages, "other") {
		shares[pkg] = 0
		if total > 0 {
			shares[pkg] = 100 * float64(weight[pkg]) / float64(total)
		}
	}
	return shares, gcCPU, nil
}

// attribute names the package a sample's stack (leaf first) is billed to.
func attribute(stack []string) string {
	if len(stack) > 0 && pkgPath(stack[0]) == "runtime" {
		return "runtime"
	}
	const repo = "cgn/internal/"
	for _, fn := range stack {
		p := pkgPath(fn)
		if len(p) > len(repo) && p[:len(repo)] == repo {
			name := p[len(repo):]
			for _, want := range profiledPackages {
				if name == want {
					return name
				}
			}
			return "other"
		}
	}
	return "other"
}

// pkgPath extracts the import path from a symbol name such as
// "cgn/internal/nat.(*NAT).translateOut" or "runtime.mallocgc".
func pkgPath(fn string) string {
	slash := 0
	for i := 0; i < len(fn); i++ {
		if fn[i] == '/' {
			slash = i
		}
	}
	for i := slash; i < len(fn); i++ {
		if fn[i] == '.' {
			return fn[:i]
		}
	}
	return fn
}

// tail is the highest percentile of xs with ten values beyond it: the
// eleventh largest, or the smallest when xs has eleven or fewer.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[max(0, len(c)-11)]
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark (Linux
// reports ru_maxrss in kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
