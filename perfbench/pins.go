package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// pinSet maps workload -> "<scale>/<seed>" -> expected output digest.
type pinSet map[string]map[string]string

//go:embed pins.json
var embeddedPins []byte

// loadPins decodes the embedded pins.json.
func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(embeddedPins, &p); err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	return p, nil
}

func pinKey(scale string, seed int64) string { return scale + "/" + strconv.FormatInt(seed, 10) }

func (p pinSet) lookup(workload, scale string, seed int64) (string, bool) {
	d, ok := p[workload][pinKey(scale, seed)]
	return d, ok
}

// makePins prints, as pins.json entries, each input seed's reference
// digest (a workload with a fixed seed has just the one),
// computed on a path independent of the one the benchmark times: the
// paper bundle on one goroutine (report.CollectSequential), the metro
// day with two realm workers and two shards, and the fleet without
// interruption. Each engine's determinism contract says these match.
func makePins(name, seeds string, o *options) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	out := map[string]string{}
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-mkpins: %w", err)
		}
		o.seed = w.inputSeed(seed)
		if _, done := out[pinKey(o.scale(), o.seed)]; done {
			continue
		}
		d, err := w.reference(o)
		if err != nil {
			return err
		}
		out[pinKey(o.scale(), o.seed)] = d
		fmt.Fprintf(os.Stderr, "%s %s: %s\n", name, pinKey(o.scale(), o.seed), d)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]map[string]string{name: out})
}
