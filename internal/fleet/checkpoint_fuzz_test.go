package fleet

import (
	"crypto/sha256"
	"testing"

	"cgn/internal/traffic"
)

// fuzzConfig is a small two-universe fleet the checkpoint fuzz seeds
// are cut from: three carriers, one starting disabled, and — in the
// sharded universe — a lane outage that is still in force at the cut,
// so the seeds carry live flows, per-lane streams and outage flags.
func fuzzConfig(shards int) Config {
	specs := SyntheticFleet(9, 3, 6)
	specs[0].CGNEnabled = true
	specs[0].NAT.ExternalIPs = carrierPool(0, 2)
	specs[1].CGNEnabled = true
	specs[2].CGNEnabled = false
	tl := Timeline{Events: []Event{
		{Day: 1, Carrier: 1, Kind: EventGrow, Arg: 2},
		{Day: 2, Carrier: 2, Kind: EventEnable},
	}}
	if shards > 0 {
		tl.Events = append(tl.Events, Event{Day: 1, Carrier: 0, Kind: EventLaneDown, Arg: 1})
	}
	return Config{
		Seed:     9,
		Days:     4,
		Profile:  traffic.Profile{DayTicks: 12},
		Carriers: specs,
		Timeline: tl,
		Obs:      ObservationConfig{Windows: []int{1, 2}},
		Shards:   shards,
	}
}

// FuzzDecodeCheckpoint feeds mutated checkpoint bodies through the
// whole restore path. The target re-hashes every input before decoding,
// so mutations reach gob decoding, Resume's validation and the flow
// relink rather than stopping at the checksum. Each input must either
// be rejected with an error or yield a Sim that steps a day without
// panicking.
func FuzzDecodeCheckpoint(f *testing.F) {
	cfgs := []Config{fuzzConfig(0), fuzzConfig(2)}
	for _, cfg := range cfgs {
		s, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		s.StepDay()
		s.StepDay()
		ck := s.Checkpoint()
		flows := 0
		for _, rc := range ck.Realms {
			flows += len(rc.Flows)
		}
		if flows == 0 {
			f.Fatalf("shards %d: seed checkpoint holds no live flows", cfg.Shards)
		}
		data, err := ck.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-sha256.Size])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		ck, err := DecodeCheckpoint(append(body[:len(body):len(body)], sum[:]...))
		if err != nil {
			return
		}
		for _, cfg := range cfgs {
			if s, err := Resume(cfg, ck); err == nil {
				s.StepDay()
			}
		}
	})
}

// TestResumeRejectsUnscriptedProvisioning: a checkpoint's provisioning
// round and pool size must be the ones the timeline implies by its day.
// Trusting them let a damaged checkpoint build a pool of negative size.
func TestResumeRejectsUnscriptedProvisioning(t *testing.T) {
	cfg := fuzzConfig(0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StepDay()
	ck := s.Checkpoint()
	ck.Realms[0].Provision, ck.Realms[0].PoolSize = 1, -1
	if _, err := Resume(cfg, ck); err == nil {
		t.Fatal("provisioning history the timeline does not imply accepted")
	}
}
