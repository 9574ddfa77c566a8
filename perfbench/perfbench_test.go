package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The self-tests run every workload at tiny scale (the Small scenario, a
// few realms, a few days), so they finish in seconds:
//
//	cd perfbench && go test ./...

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with
// the program's own metric tables.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

// tinyOptions runs one short rep at tiny scale with the embedded pins.
func tinyOptions(t *testing.T, trace bool) *options {
	t.Helper()
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return &options{seed: 1, budget: 1, trace: trace, tiny: true, dir: t.TempDir(), pins: pins}
}

// present lists, per workload, traced metrics that must read non-zero:
// each workload's own layers.
var present = map[string][]string{
	"paper-bundle": {"internet.build_s", "btsim.mingle_s", "crawler.run_s", "crawler.queried",
		"netalyzr.run_s", "detect.s", "report.e18_s", "report.e21_s", "traffic.created"},
	"metro-day": {"traffic.run_s", "traffic.created", "traffic.refreshes", "traffic.ns_per_event"},
	"fleet-resume": {"fleet.day_ms", "fleet.save_ms", "fleet.snapshot_ms", "fleet.load_ms",
		"fleet.resume_ms", "fleet.ckpt_bytes", "fleet.days"},
}

func TestTinyEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, trace)
			d, res, err := runWorkload(w.name, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !d.Pinned {
				t.Errorf("%s: tiny seed 1 has no pin", w.name)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d mismatches=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, d.Mismatches)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, s.name, m, s.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			if res.Attempted != 2 {
				t.Errorf("%s: traced run attempted %d operations, want the untraced and the traced one", w.name, res.Attempted)
			}
			for _, name := range present[w.name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
				}
			}
			sum := 0.0
			for _, pkg := range append(profiledPackages, "other") {
				sum += res.Metrics["cpu_share."+pkg].Value
			}
			// A run too short for a single profile sample has no shares.
			if sum != 0 && math.Abs(sum-100) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v, want 100", w.name, sum)
			}
		}
	}
}

func TestCorruptPinIsAFailedOperation(t *testing.T) {
	for _, w := range workloads {
		o := tinyOptions(t, false)
		o.pins = pinSet{w.name: {pinKey("tiny", 1): "0000"}}
		d, res, err := runWorkload(w.name, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed != res.Attempted || len(d.Mismatches) == 0 {
			t.Errorf("%s with a corrupted pin: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestUnpinnedSeedReportsWithoutFailing(t *testing.T) {
	o := tinyOptions(t, false)
	o.seed = 987654
	d, res, err := runWorkload("metro-day", o)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pinned || !res.Correct || len(d.Digests) != res.Attempted {
		t.Errorf("unpinned seed: pinned=%v correct=%v digests=%d attempted=%d", d.Pinned, res.Correct, len(d.Digests), res.Attempted)
	}
}

func TestFixedSeedWorkloadIgnoresSeed(t *testing.T) {
	o := tinyOptions(t, false)
	o.seed = 19
	d, res, err := runWorkload("fleet-resume", o)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seed != 19 || d.InputSeed != 1 || !d.Pinned || !res.Correct {
		t.Errorf("fixed-seed workload at seed 19: seed=%d input_seed=%d pinned=%v correct=%v", d.Seed, d.InputSeed, d.Pinned, res.Correct)
	}
}
