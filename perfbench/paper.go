package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"time"

	"cgn/internal/btsim"
	"cgn/internal/crawler"
	"cgn/internal/detect"
	"cgn/internal/internet"
	"cgn/internal/props"
	"cgn/internal/report"
	"cgn/internal/survey"
)

// The paper-bundle workload: internet.Build of the paper scenario at the
// seed is the set-up, and report.Collect, as reportgen calls it, is the
// run. It is what every reproduction of the paper pays: the serial
// BitTorrent crawl, the Netalyzr sessions, detection, the §6 property
// analyses and the E17–E22 replays.

// paperSpan names one traced stage of the paper bundle.
type paperSpan struct{ stem, timeName string }

// paperSpans are the traced replay's spans, in Collect's stage order.
var paperSpans = []paperSpan{
	{"internet.build", "internet.build_s"},
	{"btsim.bootstrap", "btsim.bootstrap_s"},
	{"btsim.seed_lans", "btsim.seed_lans_s"},
	{"btsim.assign", "btsim.assign_s"},
	{"btsim.mingle", "btsim.mingle_s"},
	{"crawler.run", "crawler.run_s"},
	{"netalyzr.run", "netalyzr.run_s"},
	{"survey", "survey.s"},
	{"detect", "detect.s"},
	{"props", "props.s"},
	{"report.e17", "report.e17_s"},
	{"report.e18", "report.e18_s"},
	{"report.e19", "report.e19_s"},
	{"report.e21", "report.e21_s"},
	{"report.e22", "report.e22_s"},
}

// paperNominal is about one report.Collect of the paper world on a
// 2-vCPU host; it only turns the measuring budget into a repeat count.
const paperNominal = 17 * time.Second

func paperScenario(o *options) (internet.Scenario, error) {
	name := "paper"
	if o.tiny {
		name = "small"
	}
	sc, err := internet.Lookup(name)
	sc.Seed = o.seed
	return sc, err
}

// paperDigest is the SHA-256 of the rendered E01–E22 sections.
func paperDigest(b *report.Bundle) string {
	sections := []struct {
		id     string
		render func() string
	}{
		{"E01", b.E01}, {"E02", b.E02}, {"E03", b.E03}, {"E04", b.E04},
		{"E05", b.E05}, {"E06", b.E06}, {"E07", b.E07}, {"E08", b.E08},
		{"E09", b.E09}, {"E10", b.E10}, {"E11", b.E11}, {"E12", b.E12},
		{"E13", b.E13}, {"E14", b.E14}, {"E15", b.E15}, {"E16", b.E16},
		{"E17", b.E17}, {"E18", b.E18}, {"E19", b.E19}, {"E21", b.E21},
		{"E22", b.E22},
	}
	h := sha256.New()
	for _, s := range sections {
		h.Write([]byte("## " + s.id + "\n"))
		h.Write([]byte(s.render()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runPaper(o *options) (*outcome, error) {
	sc, err := paperScenario(o)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: metricSet{}}
	var setups, runs []float64
	build := func() *internet.World {
		runtime.GC()
		start := time.Now()
		w := internet.Build(sc)
		setups = append(setups, time.Since(start).Seconds())
		return w
	}
	collect := func(w *internet.World) (*report.Bundle, float64) {
		runtime.GC()
		start := time.Now()
		b := report.Collect(w)
		return b, time.Since(start).Seconds()
	}
	if o.trace {
		return out, tracePaper(o, sc, out, build, collect)
	}
	// Five extra builds make setup_s a median of at least six.
	for i := 0; i < 5; i++ {
		build()
	}
	err = repeat(o.budget, paperNominal, func() error {
		b, wall := collect(build())
		runs = append(runs, wall)
		o.check(out, "paper-bundle", paperDigest(b))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.setEndToEnd(setups, runs)
	return out, nil
}

// tracePaper runs Collect once untraced, then replays its stages with a
// span around each on a freshly built world, under a CPU profile.
func tracePaper(o *options, sc internet.Scenario, out *outcome,
	build func() *internet.World, collect func(*internet.World) (*report.Bundle, float64)) error {
	b, untracedWall := collect(build())
	untraced := paperDigest(b)
	o.check(out, "paper-bundle", untraced)
	b = nil

	tr := &tracer{}
	var w *internet.World
	runtime.GC()
	tr.do("internet.build", "internet.build_s", func() { w = internet.Build(sc) })
	runtime.GC()
	var replayWall float64
	shares, gcCPU, err := cpuProfile(func() {
		start := time.Now()
		b = replayCollect(w, tr)
		replayWall = time.Since(start).Seconds()
	})
	if err != nil {
		return err
	}
	o.checkSame(out, "paper-bundle", untraced, paperDigest(b))

	m := out.metrics
	tr.spanMetrics(m)
	build0 := tr.spans[0].wall.Seconds() // internet.build is not part of the replay
	setTraceSummary(m, replayWall-untracedWall, 100*(tr.covered().Seconds()-build0)/replayWall, gcCPU, shares)
	m.set("crawler.queried", float64(len(b.Crawl.Queried)), "count")
	m.set("crawler.learned", float64(len(b.Crawl.Learned)), "count")
	m.set("crawler.responded", float64(len(b.Crawl.PingResponded)), "count")
	// The paper bundle's traffic-engine work is the E18 replay.
	for _, s := range tr.spans {
		if s.stem == "report.e18" {
			trafficLayer(m, b.Traffic.Res, s.sample)
		}
	}
	return nil
}

// replayCollect is report.Collect's stage sequence driven from outside
// through each layer's public functions, one stage at a time, with a
// span around each. It must build the same Bundle as Collect: the
// traced run's digest is checked against the untraced one.
func replayCollect(w *internet.World, tr *tracer) *report.Bundle {
	b := &report.Bundle{World: w}

	// Measurement phase: World.RunCrawl's steps, then the Netalyzr
	// sessions.
	opt := internet.DefaultCrawlOptions()
	tr.do("btsim.bootstrap", "btsim.bootstrap_s", w.Swarm.Bootstrap)
	tr.do("btsim.seed_lans", "btsim.seed_lans_s", w.Swarm.SeedLANs)
	tr.do("btsim.assign", "btsim.assign_s", func() {
		w.Swarm.AssignTorrents(opt.LocalTorrentsPerAS, opt.GlobalTorrents, opt.GlobalJoinProb)
	})
	cr := crawler.New(w.CrawlerHost, w.Net.Global(), opt.Crawler)
	tr.do("btsim.mingle", "btsim.mingle_s", func() {
		w.Swarm.Mingle(opt.LocalityK, opt.MingleRounds, btsim.ChatterConfig{
			LookupProb:      opt.LookupProb,
			CrawlerEP:       cr.Endpoint(),
			CrawlerPingProb: opt.CrawlerPingProb,
		})
	})
	tr.do("crawler.run", "crawler.run_s", func() {
		cr.Seed(w.Swarm.BootstrapEP)
		b.Crawl = cr.Run()
	})
	tr.do("netalyzr.run", "netalyzr.run_s", func() { b.Sessions = w.RunNetalyzr() })

	// Detection phase.
	tr.do("survey", "survey.s", func() {
		b.Survey = survey.AggregateCorpus(survey.Corpus(w.Scenario.Seed))
	})
	tr.do("detect", "detect.s", func() {
		b.BT = detect.AnalyzeBitTorrent(b.Crawl, w.BTDetectConfig())
		b.BTV = detect.BTView(b.BT)
		b.Cellular = detect.AnalyzeCellular(b.Sessions, w.Net.Global(), detect.NLConfig{})
		b.CellV = detect.CellularView(b.Cellular)
		b.NonCell = detect.AnalyzeNonCellular(b.Sessions, w.Net.Global(), detect.NLConfig{})
		b.NonCellV = detect.NonCellularView(b.NonCell)
		b.UnionV = detect.Union("BitTorrent ∪ Netalyzr", b.BTV, b.NonCellV)
	})

	// Property phase, conditioned on the combined CGN verdict.
	tr.do("props", "props.s", func() {
		cgn := detect.Union("all", b.BTV, b.CellV, b.NonCellV).Positive
		filtered := props.FilterNetworks(b.Sessions, cgn, props.MinSessionsPerNetwork)
		b.Ports = props.AnalyzePorts(b.Sessions, cgn, props.PortConfig{})
		b.Space = props.AnalyzeInternalSpace(b.Sessions, b.BT, cgn, w.Net.Global(), b.NonCell.TopCPEBlocks)
		b.Distance = props.AnalyzeDistance(filtered, cgn)
		b.Timeouts = props.AnalyzeTimeouts(filtered, cgn)
		b.TTLQuad = props.AnalyzeTTLDetection(b.Sessions)
		b.STUN = props.AnalyzeSTUN(filtered, cgn)
	})
	tr.do("report.e17", "report.e17_s", func() { b.Load = report.AnalyzePortLoad(w) })
	tr.do("report.e18", "report.e18_s", func() { b.Traffic = report.AnalyzeTrafficOpts(w, 0, 0) })
	tr.do("report.e19", "report.e19_s", func() { b.Adversarial = report.AnalyzeAdversarial(w, 0, 0) })
	tr.do("report.e21", "report.e21_s", func() { b.Observe = report.AnalyzeObservation(w, 0) })
	tr.do("report.e22", "report.e22_s", func() { b.Faults = report.AnalyzeFaults(w, 0, 0) })
	return b
}

// paperReference digests the bundle CollectSequential builds: the same
// campaign with every stage on one goroutine.
func paperReference(o *options) (string, error) {
	sc, err := paperScenario(o)
	if err != nil {
		return "", err
	}
	return paperDigest(report.CollectSequential(internet.Build(sc))), nil
}
