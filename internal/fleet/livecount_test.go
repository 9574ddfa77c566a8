package fleet

import (
	"reflect"
	"testing"

	"cgn/internal/traffic"
)

// busyConfig is a one-carrier fleet whose subscribers hold dozens of
// live mappings at every day boundary — heavy arrivals, long flow holds
// and no per-subscriber quota — so a membership change or a resume
// rebuilds live-count buckets far past the table's initial size.
func busyConfig(shards int, tl Timeline) Config {
	specs := SyntheticFleet(5, 1, 4)
	specs[0].CGNEnabled = true
	specs[0].NAT.PortQuotaPerSubscriber = 0
	return Config{
		Seed:     5,
		Days:     3,
		Profile:  traffic.Profile{DayTicks: 24, FlowsPerTick: 4, FlowHoldTicks: 8},
		Carriers: specs,
		Timeline: tl,
		Obs:      ObservationConfig{Windows: []int{1, 2}},
		Shards:   shards,
	}
}

// TestLiveCountRebuildHighLive drives a realm whose subscribers hold 16
// or more live mappings through a membership event and through
// Checkpoint→Resume, in both engine universes. Both paths rebuild the
// live-count buckets by moving each subscriber from bucket 0 straight to
// its live count, which must grow the bucket table as far as needed; the
// resumed run must still match the uninterrupted one.
func TestLiveCountRebuildHighLive(t *testing.T) {
	for _, shards := range []int{0, 2} {
		for _, kind := range []EventKind{EventGrow, EventChurn} {
			tl := Timeline{Events: []Event{{Day: 1, Carrier: 0, Kind: kind, Arg: 1}}}
			cfg := busyConfig(shards, tl)
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.StepDay()
			var maxLive int32
			for _, sub := range s.realms[0].subs {
				maxLive = max(maxLive, sub.live)
			}
			if maxLive < 16 {
				t.Fatalf("shards %d: busiest subscriber holds %d live mappings, want >= 16", shards, maxLive)
			}
			data, err := s.Checkpoint().encode()
			if err != nil {
				t.Fatal(err)
			}
			ck, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Resume(cfg, ck)
			if err != nil {
				t.Fatal(err)
			}
			for !resumed.Done() {
				resumed.StepDay()
			}
			if got := resumed.Result(); !reflect.DeepEqual(got, ref) {
				t.Fatalf("shards %d, event %d: resumed result differs:\n got %+v\nwant %+v", shards, kind, got, ref)
			}
		}
	}
}
