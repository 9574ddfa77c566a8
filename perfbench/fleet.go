package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cgn/internal/fleet"
	"cgn/internal/traffic"
)

// The fleet-resume workload is shaped like a cgnsimd restart: a
// synthetic carrier fleet evolving under its scripted timeline and a
// fault schedule (lane outages, engine restarts) on the sharded engine,
// one realm worker. An untimed warm phase runs to mid-horizon and saves
// a checkpoint. The set-up is the daemon's restart path,
// LoadCheckpointNewest plus Resume; the run steps the remaining days,
// saving a checkpoint every seven virtual days and at the horizon
// through SaveCheckpointRetry with a three-generation ring, as cgnsimd
// does. The output check compares the resumed run's per-realm state
// digests and E21 windows with an uninterrupted run's.

// fleetMetrics are the fleet engine's per-layer metrics.
var fleetMetrics = []metricSpec{
	{"fleet.day_ms", "ms"},
	{"fleet.day_ms_p67", "ms"},
	{"fleet.allocs_per_day", "count"},
	{"fleet.alloc_mb_per_day", "MB"},
	{"fleet.snapshot_ms", "ms"},
	{"fleet.save_ms", "ms"},
	{"fleet.ckpt_bytes", "bytes"},
	{"fleet.ckpt_retries", "count"},
	{"fleet.load_ms", "ms"},
	{"fleet.resume_ms", "ms"},
	{"fleet.days", "count"},
	{"fleet.faults", "count"},
}

const (
	fleetFaultSeverity = 1.0
	fleetCkptEvery     = 7 // virtual days between cadence checkpoints
	// fleetNominal is about one resumed half on a 2-vCPU host; it only
	// turns the measuring budget into a repeat count.
	fleetNominal = 12500 * time.Millisecond
)

// fleetShape sizes the fleet: carriers x subscribers, the horizon in
// days, and the day the warm phase stops at.
type fleetShape struct{ carriers, subscribers, days, warm, dayTicks int }

func shapeFor(o *options) fleetShape {
	if o.tiny {
		return fleetShape{carriers: 3, subscribers: 40, days: 6, warm: 3, dayTicks: 48}
	}
	return fleetShape{carriers: 8, subscribers: 500, days: 60, warm: 30, dayTicks: 288}
}

// fleetConfig builds the fleet as cgnsimd does from its flags (-seed,
// -carriers, -subscribers, -days, -faults 1, -shards 1). At seed 1, the
// workload's only seed, the resumed half holds three lane outages and
// three engine restarts.
func fleetConfig(o *options) fleet.Config {
	sh := shapeFor(o)
	specs := fleet.SyntheticFleet(o.seed, sh.carriers, sh.subscribers)
	timeline := fleet.ScriptTimeline(o.seed, specs, sh.days)
	timeline.Events = append(timeline.Events, fleet.ScriptFaults(o.seed, specs, sh.days, fleetFaultSeverity).Events...)
	return fleet.Config{
		Seed:     o.seed,
		Days:     sh.days,
		Profile:  traffic.Profile{DayTicks: sh.dayTicks},
		Carriers: specs,
		Timeline: timeline,
		Workers:  1,
		Shards:   1,
	}
}

// fleetDigest is the SHA-256 of a digest text in the shape of cgnsimd's
// -digests file: one line per realm with the SHA-256 of its engine state
// digest, one per E21 window. The header and the realm digest fields are
// formatted differently, so a cgnsimd digest file does not hash to it.
func fleetDigest(res *fleet.Result) string {
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("days=%d carriers=%d events=%d\n", res.Days, res.Carriers, res.EventsApplied)
	for _, r := range res.Realms {
		state := sha256.Sum256([]byte(r.Digest))
		app("realm %s enabled=%v subs=%d created=%d expired=%d failures=%d digest=%x\n",
			r.ID, r.EnabledEnd, r.Subscribers, r.Created, r.Expired, r.Failures, state)
	}
	for _, w := range res.Windows {
		app("window days=%d threshold=%d tp=%d fp=%d fn=%d tn=%d precision=%.6f recall=%.6f f1=%.6f\n",
			w.Days, w.Threshold, w.TP, w.FP, w.FN, w.TN, w.Precision, w.Recall, w.F1)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fleetTrace collects the traced run's per-call samples.
type fleetTrace struct {
	days, snapshots, saves []sample
	retries                int
	bytes                  int64
}

// fleetRun is one workload invocation's state.
type fleetRun struct {
	o        *options
	cfg      fleet.Config
	warmPath string // the mid-horizon checkpoint every set-up loads
	runPath  string // the ring the timed run writes

	// Every set-up's wall time in seconds, and its two calls' in
	// milliseconds.
	setups, loads, resumes []float64
}

func newFleetRun(o *options) (*fleetRun, error) {
	f := &fleetRun{
		o:        o,
		cfg:      fleetConfig(o),
		warmPath: filepath.Join(o.dir, "warm", "fleet.ckpt"),
		runPath:  filepath.Join(o.dir, "run", "fleet.ckpt"),
	}
	for _, p := range []string{f.warmPath, f.runPath} {
		if err := os.RemoveAll(filepath.Dir(p)); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// warm runs the untimed first half and saves its checkpoint.
func (f *fleetRun) warm() error {
	sim, err := fleet.New(f.cfg)
	if err != nil {
		return err
	}
	for sim.Day() < shapeFor(f.o).warm {
		sim.StepDay()
	}
	return f.save(f.warmPath, sim, nil)
}

// setup is the daemon's restart path: load the newest valid checkpoint
// generation, then rebuild the simulation from it.
func (f *fleetRun) setup() (*fleet.Sim, error) {
	runtime.GC()
	var (
		ck  *fleet.Checkpoint
		sim *fleet.Sim
		err error
	)
	load := measure(func() { ck, _, err = fleet.LoadCheckpointNewest(f.warmPath) })
	if err != nil {
		return nil, err
	}
	resume := measure(func() { sim, err = fleet.Resume(f.cfg, ck) })
	f.setups = append(f.setups, (load.wall + resume.wall).Seconds())
	f.loads = append(f.loads, ms(load.wall))
	f.resumes = append(f.resumes, ms(resume.wall))
	return sim, err
}

// save writes one checkpoint through the retention ring, with cgnsimd's
// retry policy.
func (f *fleetRun) save(path string, sim *fleet.Sim, tr *fleetTrace) error {
	var ck *fleet.Checkpoint
	snap := measure(func() { ck = sim.Checkpoint() })
	var out fleet.RetryOutcome
	var err error
	save := measure(func() {
		out, err = fleet.SaveCheckpointRetry(path, ck, fleet.RetryPolicy{
			Keep:        3,
			MaxAttempts: 4,
			BackoffBase: 250 * time.Millisecond,
			Seed:        f.o.seed,
			Key:         uint64(sim.Day()),
		})
	})
	if err != nil {
		return fmt.Errorf("checkpoint at day %d: %w", sim.Day(), err)
	}
	if tr != nil {
		tr.snapshots = append(tr.snapshots, snap)
		tr.saves = append(tr.saves, save)
		tr.retries += out.Retries
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		tr.bytes = fi.Size()
	}
	return nil
}

// daemon steps sim to the horizon as cgnsimd's day loop does and returns
// the result's digest and the loop's wall time.
func (f *fleetRun) daemon(sim *fleet.Sim, tr *fleetTrace) (string, float64, error) {
	if err := os.RemoveAll(filepath.Dir(f.runPath)); err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(filepath.Dir(f.runPath), 0o755); err != nil {
		return "", 0, err
	}
	runtime.GC()
	start := time.Now()
	for !sim.Done() {
		day := measure(sim.StepDay)
		if tr != nil {
			tr.days = append(tr.days, day)
		}
		if sim.Day()%fleetCkptEvery == 0 && !sim.Done() {
			if err := f.save(f.runPath, sim, tr); err != nil {
				return "", 0, err
			}
		}
	}
	if err := f.save(f.runPath, sim, tr); err != nil {
		return "", 0, err
	}
	wall := time.Since(start).Seconds()
	return fleetDigest(sim.Result()), wall, nil
}

func runFleet(o *options) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	f, err := newFleetRun(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(f.warmPath))
	defer os.RemoveAll(filepath.Dir(f.runPath))
	if err := f.warm(); err != nil {
		return nil, err
	}
	// Twenty-nine set-ups before the timed reps make setup_s a median of
	// at least thirty; each rep resumes afresh and adds one more.
	for i := 0; i < 29; i++ {
		if _, err := f.setup(); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return out, f.trace(out)
	}
	var runs []float64
	err = repeat(o.budget, fleetNominal, func() error {
		sim, err := f.setup()
		if err != nil {
			return err
		}
		d, wall, err := f.daemon(sim, nil)
		if err != nil {
			return err
		}
		runs = append(runs, wall)
		o.check(out, "fleet-resume", d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.setEndToEnd(f.setups, runs)
	return out, nil
}

// trace runs the resumed half once untraced and once under a CPU profile
// with every day, snapshot and save timed.
func (f *fleetRun) trace(out *outcome) error {
	o := f.o
	sim, err := f.setup()
	if err != nil {
		return err
	}
	untraced, untracedWall, err := f.daemon(sim, nil)
	if err != nil {
		return err
	}
	o.check(out, "fleet-resume", untraced)

	if sim, err = f.setup(); err != nil {
		return err
	}
	faults0 := sim.FaultsInjected()
	tr := &fleetTrace{}
	var (
		traced    string
		wall      float64
		daemonErr error
	)
	shares, gcCPU, err := cpuProfile(func() {
		traced, wall, daemonErr = f.daemon(sim, tr)
	})
	if err != nil {
		return err
	}
	if daemonErr != nil {
		return daemonErr
	}
	o.checkSame(out, "fleet-resume", untraced, traced)

	var days, dayAllocs, dayMB, snaps, saves []float64
	var covered time.Duration
	for _, s := range tr.days {
		days = append(days, ms(s.wall))
		dayAllocs = append(dayAllocs, float64(s.allocs))
		dayMB = append(dayMB, float64(s.bytes)/(1<<20))
		covered += s.wall
	}
	for i := range tr.snapshots {
		snaps = append(snaps, ms(tr.snapshots[i].wall))
		saves = append(saves, ms(tr.saves[i].wall))
		covered += tr.snapshots[i].wall + tr.saves[i].wall
	}
	faults1 := sim.FaultsInjected()
	m := out.metrics
	m.set("fleet.day_ms", median(days), "ms")
	// Of 30 timed days, the 20th is the highest with ten beyond it.
	m.set("fleet.day_ms_p67", tail(days), "ms")
	m.set("fleet.allocs_per_day", median(dayAllocs), "count")
	m.set("fleet.alloc_mb_per_day", median(dayMB), "MB")
	m.set("fleet.snapshot_ms", median(snaps), "ms")
	m.set("fleet.save_ms", median(saves), "ms")
	m.set("fleet.ckpt_bytes", float64(tr.bytes), "bytes")
	m.set("fleet.ckpt_retries", float64(tr.retries), "count")
	m.set("fleet.load_ms", median(f.loads), "ms")
	m.set("fleet.resume_ms", median(f.resumes), "ms")
	m.set("fleet.days", float64(len(tr.days)), "count")
	m.set("fleet.faults", float64(faults1[0]+faults1[1]+faults1[2]-faults0[0]-faults0[1]-faults0[2]), "count")
	setTraceSummary(m, wall-untracedWall, 100*covered.Seconds()/wall, gcCPU, shares)
	return nil
}

// fleetReference digests an uninterrupted run of the whole horizon: the
// result every resumed run must reproduce.
func fleetReference(o *options) (string, error) {
	res, err := fleet.Run(fleetConfig(o))
	if err != nil {
		return "", err
	}
	return fleetDigest(res), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
