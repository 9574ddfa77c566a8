package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"runtime"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/traffic"
)

// The metro-day workload: the TrafficMetroSharded configuration of
// internal/perf (16 carrier realms of 65,536 subscribers, four external
// IPs each, one 96-tick diurnal day) on the sharded NAT engine with one
// realm worker and one shard. Most of its CPU is nat translate, refresh
// and sweep under steady churn; it has no crawl, no checkpoint and no
// faults.

// trafficMetrics are the traffic engine's per-layer metrics.
var trafficMetrics = []metricSpec{
	{"traffic.run_s", "s"},
	{"traffic.run.allocs", "count"},
	{"traffic.run.alloc_mb", "MB"},
	{"traffic.created", "count"},
	{"traffic.expired", "count"},
	{"traffic.refreshes", "count"},
	{"traffic.failures", "count"},
	{"traffic.ns_per_event", "ns"},
}

// trafficLayer reports one traffic.Run call: its cost and its mapping
// events (creations, expiries, refreshes and allocation failures).
func trafficLayer(m metricSet, res *traffic.Result, s sample) {
	m.set("traffic.run_s", s.wall.Seconds(), "s")
	m.set("traffic.run.allocs", float64(s.allocs), "count")
	m.set("traffic.run.alloc_mb", float64(s.bytes)/(1<<20), "MB")
	m.set("traffic.created", float64(res.Created), "count")
	m.set("traffic.expired", float64(res.Expired), "count")
	m.set("traffic.refreshes", float64(res.Refreshes), "count")
	m.set("traffic.failures", float64(res.Failures), "count")
	if events := res.Created + res.Expired + res.Refreshes + res.Failures; events > 0 {
		m.set("traffic.ns_per_event", float64(s.wall.Nanoseconds())/float64(events), "ns")
	}
}

// metroConfig is the metro day at the given tick count.
func metroConfig(o *options, ticks int) traffic.Config {
	realms, subs, ipsPerRealm := 16, 65536, 4
	if o.tiny {
		realms, subs = 2, 2048
	}
	specs := make([]traffic.RealmSpec, realms)
	for i := range specs {
		ips := make([]netaddr.Addr, ipsPerRealm)
		for k := range ips {
			ips[k] = netaddr.MustParseAddr("198.51.100.1") + netaddr.Addr(ipsPerRealm*i+k)
		}
		specs[i] = traffic.RealmSpec{
			ID:       "metro",
			Cellular: i%2 == 1,
			NAT: nat.Config{
				Type:        nat.Symmetric,
				PortAlloc:   nat.Random,
				Pooling:     nat.Paired,
				ExternalIPs: ips,
				UDPTimeout:  65 * time.Second,
				Seed:        o.seed*1000 + int64(i+1),
			},
			Subscribers: subs,
		}
	}
	return traffic.Config{
		Seed: o.seed,
		Profile: traffic.Profile{
			Ticks:         ticks,
			DayTicks:      96,
			DiurnalAmp:    0.7,
			HeavyFrac:     0.02,
			LightFrac:     0.60,
			FlowsPerTick:  0.25,
			HeavyMult:     8,
			FlowHoldTicks: 2,
		},
		Workers: 1,
		Shards:  1,
		Realms:  specs,
	}
}

// metroNominal is about one metro day on a 2-vCPU host; it only turns
// the measuring budget into a repeat count.
const metroNominal = 25 * time.Second

// metroTicks is the timed run's length: one day.
func metroTicks(o *options) int {
	if o.tiny {
		return 12
	}
	return 96
}

var errNoLoad = errors.New("metro day produced no load")

// metroDigest is the SHA-256 of the JSON-encoded traffic.Result.
func metroDigest(res *traffic.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func runMetro(o *options) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	cfg := metroConfig(o, metroTicks(o))
	day := func() (*traffic.Result, string, sample, error) {
		runtime.GC()
		var res *traffic.Result
		s := measure(func() { res = traffic.Run(cfg) })
		if res.Created == 0 {
			return nil, "", s, errNoLoad
		}
		d, err := metroDigest(res)
		return res, d, s, err
	}
	if o.trace {
		return out, traceMetro(o, out, day)
	}
	// The set-up is the engine's cold start: building the metro and
	// running it for a single tick, median of fifteen. traffic.Run has no
	// separate build step, so the timed day builds its engine again and
	// this only reports the construction cost beside it.
	var setups, runs []float64
	for i := 0; i < 15; i++ {
		runtime.GC()
		start := time.Now()
		traffic.Run(metroConfig(o, 1))
		setups = append(setups, time.Since(start).Seconds())
	}
	err := repeat(o.budget, metroNominal, func() error {
		_, d, s, err := day()
		if err != nil {
			return err
		}
		runs = append(runs, s.wall.Seconds())
		o.check(out, "metro-day", d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.setEndToEnd(setups, runs)
	return out, nil
}

// traceMetro runs the day once untraced and once under a CPU profile
// with a span around traffic.Run.
func traceMetro(o *options, out *outcome, day func() (*traffic.Result, string, sample, error)) error {
	_, untraced, us, err := day()
	if err != nil {
		return err
	}
	o.check(out, "metro-day", untraced)

	var (
		res    *traffic.Result
		traced string
		s      sample
		dayErr error
		wall   float64
	)
	shares, gcCPU, err := cpuProfile(func() {
		start := time.Now()
		res, traced, s, dayErr = day()
		wall = time.Since(start).Seconds()
	})
	if err != nil {
		return err
	}
	if dayErr != nil {
		return dayErr
	}
	o.checkSame(out, "metro-day", untraced, traced)

	m := out.metrics
	trafficLayer(m, res, s)
	setTraceSummary(m, s.wall.Seconds()-us.wall.Seconds(), 100*s.wall.Seconds()/wall, gcCPU, shares)
	return nil
}

// metroReference digests the same day run with two realm workers and two
// shards, which the engine's determinism contract says changes nothing.
func metroReference(o *options) (string, error) {
	cfg := metroConfig(o, metroTicks(o))
	cfg.Workers, cfg.Shards = 2, 2
	return metroDigest(traffic.Run(cfg))
}
