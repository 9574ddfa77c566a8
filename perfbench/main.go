// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process, prints every end-to-end metric by name with its
// unit, and checks each run's output against a pinned digest; with
// -trace 1 it reruns the workload with spans around the calls into each
// layer's public functions and prints the per-layer metrics instead.
//
//	perfbench -workload paper-bundle -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries
// diagnostics (output digests, the calibration anchor). See README.md
// for the workloads and the metrics, and run.py for the wrapper that
// builds this package from source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

// set records the named metric, replacing any earlier value.
func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// metricSpec names one metric the benchmark emits and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is the untraced run's output, the same for every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's output. Every workload prints all of
// them; a layer a workload never calls reads 0.
var perLayer = []metricSpec{
	// Whole-run diagnostics.
	{"trace.overhead_s", "s"},
	{"trace.span_coverage", "%"},
	{"gc.cpu_s", "s"},
	{"calib.cpu_ms", "ms"},
	{"calib.mem_ms", "ms"},
	// CPU profile shares by package.
	{"cpu_share.nat", "%"},
	{"cpu_share.traffic", "%"},
	{"cpu_share.fleet", "%"},
	{"cpu_share.dht", "%"},
	{"cpu_share.krpc", "%"},
	{"cpu_share.simnet", "%"},
	{"cpu_share.btsim", "%"},
	{"cpu_share.crawler", "%"},
	{"cpu_share.runtime", "%"},
	{"cpu_share.other", "%"},
}

func init() {
	// The paper bundle's spans, in Collect's stage order.
	for _, s := range paperSpans {
		perLayer = append(perLayer,
			metricSpec{s.timeName, "s"},
			metricSpec{s.stem + ".allocs", "count"},
			metricSpec{s.stem + ".alloc_mb", "MB"})
	}
	perLayer = append(perLayer,
		metricSpec{"crawler.queried", "count"},
		metricSpec{"crawler.learned", "count"},
		metricSpec{"crawler.responded", "count"},
	)
	perLayer = append(perLayer, trafficMetrics...)
	perLayer = append(perLayer, fleetMetrics...)
}

// workload is one benchmark input set: how to benchmark it, and how to
// compute its reference digest for the pins on an independent path.
type workload struct {
	name      string
	run       func(o *options) (*outcome, error)
	reference func(o *options) (string, error)
	// fixedSeed, when non-zero, is the seed the workload's inputs are
	// always made from, whatever -seed says.
	fixedSeed int64
}

// The paper bundle and the fleet run at seed 1 only. At other seeds
// both can reach fleet realmSim.rebuildLC with a subscriber whose live
// flow count is at least twice the live-count table's length, and
// traffic.LiveCounts.Move, which grows the table only once, panics
// (paper seeds 19 and 20 do so in the E21 replay). Seed 1 is also the
// world reportgen renders into EXPERIMENTS.md.
var workloads = []workload{
	{"paper-bundle", runPaper, paperReference, 1},
	{"metro-day", runMetro, metroReference, 0},
	{"fleet-resume", runFleet, fleetReference, 1},
}

// inputSeed is the seed the workload's inputs are made from when the
// benchmark is given seed arg.
func (w *workload) inputSeed(arg int64) int64 {
	if w.fixedSeed != 0 {
		return w.fixedSeed
	}
	return arg
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options are one invocation's settings.
type options struct {
	seed   int64         // the inputs' seed: -seed, or the workload's fixed seed
	budget time.Duration // measuring time for the repeated timed run
	trace  bool
	tiny   bool   // self-test scale: small inputs that finish in seconds
	dir    string // scratch directory for checkpoints
	pins   pinSet
}

// scale names the input scale pins are recorded under.
func (o *options) scale() string {
	if o.tiny {
		return "tiny"
	}
	return "full"
}

// outcome is one invocation's result.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	// digests lists every checked output digest, in run order.
	digests []string
	// mismatches describes every digest that differed from its pin.
	mismatches []string
	// setups and runs are the untraced run's samples, in seconds.
	setups, runs []float64
}

// setEndToEnd records the untraced run's metrics: the median set-up and
// timed run, and the process's peak RSS.
func (out *outcome) setEndToEnd(setups, runs []float64) {
	out.setups, out.runs = setups, runs
	out.metrics.set("setup_s", median(setups), "s")
	out.metrics.set("run_s", median(runs), "s")
	out.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
}

// setTraceSummary records the whole-run part of a traced run's metrics.
func setTraceSummary(m metricSet, overhead, coverage, gcCPU float64, shares map[string]float64) {
	m.set("trace.overhead_s", overhead, "s")
	m.set("trace.span_coverage", coverage, "%")
	m.set("gc.cpu_s", gcCPU, "s")
	for pkg, share := range shares {
		m.set("cpu_share."+pkg, share, "%")
	}
}

// check counts one operation whose output digests to got. It fails when
// the seed has a pin and got differs from it; a seed without a pin only
// reports its digest.
func (o *options) check(out *outcome, workload, got string) {
	out.attempted++
	out.digests = append(out.digests, got)
	want, ok := o.pins.lookup(workload, o.scale(), o.seed)
	if ok && want != got {
		out.failed++
		out.mismatches = append(out.mismatches, fmt.Sprintf("%s seed %d: digest %s, pinned %s", workload, o.seed, got, want))
	}
}

// checkSame counts one traced operation: its digest must equal the
// untraced run's, and the pin if there is one.
func (o *options) checkSame(out *outcome, workload, untraced, traced string) {
	o.check(out, workload, traced)
	if traced != untraced {
		out.failed++
		out.mismatches = append(out.mismatches, fmt.Sprintf("%s seed %d: traced digest %s differs from untraced %s", workload, o.seed, traced, untraced))
	}
}

// repeat runs rep as many times as whole reps of the nominal length fit
// in the measuring budget, at least once. The count depends on the
// budget alone, not on how fast the host or the program is, so two
// versions of the program measured with the same budget repeat equally
// often, do the same work and reach comparable peak RSS.
func repeat(budget, nominal time.Duration, rep func() error) error {
	n := max(1, int(budget/nominal))
	for i := 0; i < n; i++ {
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// diagnostics is the line printed before the result.
type diagnostics struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	InputSeed  int64              `json:"input_seed"`
	Scale      string             `json:"scale"`
	Pinned     bool               `json:"pinned"`
	Digests    []string           `json:"digests"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Setups     []float64          `json:"setups_s,omitempty"`
	Runs       []float64          `json:"runs_s,omitempty"`
	Calib      map[string]float64 `json:"calibration_ms"`
	GOMAXPROCS int                `json:"gomaxprocs"`
}

// finish fills a result from an outcome: exactly the metrics the mode
// promises, zero where this workload has no such layer.
func finish(out *outcome, trace bool) (result, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	want := make(map[string]string, len(specs))
	for _, s := range specs {
		want[s.name] = s.unit
	}
	var extra []string
	for name, m := range out.metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			extra = append(extra, name+" ["+m.Unit+"]")
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, fmt.Errorf("metrics outside the declared set: %v", extra)
	}
	ms := make(metricSet, len(specs))
	for _, s := range specs {
		ms[s.name] = metric{Value: out.metrics[s.name].Value, Unit: s.unit}
	}
	return result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   ms,
	}, nil
}

// runWorkload runs the named workload and returns its diagnostics and
// result.
func runWorkload(name string, o *options) (diagnostics, result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return diagnostics{}, result{}, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return diagnostics{}, result{}, err
	}
	arg := o.seed
	o.seed = w.inputSeed(arg)
	out, err := w.run(o)
	if err != nil {
		return diagnostics{}, result{}, err
	}
	// The anchor runs after the workload so its buffer never counts
	// towards the workload's peak RSS.
	cpuMs, memMs := calibrate()
	if o.trace {
		out.metrics.set("calib.cpu_ms", cpuMs, "ms")
		out.metrics.set("calib.mem_ms", memMs, "ms")
	}
	_, pinned := o.pins.lookup(name, o.scale(), o.seed)
	d := diagnostics{
		Workload:   name,
		Seed:       arg,
		InputSeed:  o.seed,
		Scale:      o.scale(),
		Pinned:     pinned,
		Digests:    out.digests,
		Mismatches: out.mismatches,
		Setups:     out.setups,
		Runs:       out.runs,
		Calib:      map[string]float64{"cpu": cpuMs, "mem": memMs},
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	res, err := finish(out, o.trace)
	return d, res, err
}

func main() {
	var (
		o       options
		seconds float64
		trace   int
		name    string
		mkpins  string
	)
	flag.StringVar(&name, "workload", "", "workload: paper-bundle, metro-day or fleet-resume")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 30, "measuring time for the repeated timed run")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "self-test scale: small inputs that finish in seconds")
	flag.StringVar(&o.dir, "dir", ".bench_build/perfbench-tmp", "scratch directory for checkpoints")
	flag.StringVar(&mkpins, "mkpins", "", "print reference digests for the comma-separated seeds instead of benchmarking")
	flag.Parse()
	if err := run(name, &o, seconds, trace, mkpins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, o *options, seconds float64, trace int, mkpins string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive duration", seconds)
	}
	o.budget = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if mkpins != "" {
		return makePins(name, mkpins, o)
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	o.pins = pins
	d, res, err := runWorkload(name, o)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]diagnostics{"diagnostics": d}); err != nil {
		return err
	}
	return enc.Encode(res)
}
