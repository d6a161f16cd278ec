package timing

import (
	"context"
	"testing"
)

// TestConfigValidate pins Config.Validate to the simulator
// constructors: every configuration it accepts builds a simulator, and
// every geometry it rejects would have panicked, spun forever or
// exhausted memory.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"L1D.Assoc 0", func(c *Config) { c.L1D.Assoc = 0 }},
		{"L1D.Assoc 3", func(c *Config) { c.L1D.Assoc = 3 }},
		{"L1D.Assoc 32", func(c *Config) { c.L1D.Assoc = 32 }},
		{"L1D.Size 3", func(c *Config) { c.L1D.Size = 3 }},
		{"L1I.BlockSize 0", func(c *Config) { c.L1I.BlockSize = 0 }},
		{"L2.BlockSize 96", func(c *Config) { c.L2.BlockSize = 96 }},
		{"L2.Size 3000000", func(c *Config) { c.L2.Size = 3_000_000 }},
		{"L2.Size 1<<40", func(c *Config) { c.L2.Size = 1 << 40 }},
		{"BTBEntries 0", func(c *Config) { c.BTBEntries = 0 }},
		{"BTBAssoc 0", func(c *Config) { c.BTBAssoc = 0 }},
		{"BTBAssoc 32", func(c *Config) { c.BTBAssoc = 32 }},
		{"L1TLB.Entries 0", func(c *Config) { c.L1TLB.Entries = 0 }},
		{"L2TLB.Assoc 0", func(c *Config) { c.L2TLB.Assoc = 0 }},
		{"L2TLB.Entries 100", func(c *Config) { c.L2TLB.Entries = 100 }},
		{"PrefetcherEntries 3", func(c *Config) { c.PrefetcherEntries = 3 }},
		{"PrefetcherEntries -4", func(c *Config) { c.PrefetcherEntries = -4 }},
		{"IssueWidth 0", func(c *Config) { c.IssueWidth = 0 }},
		{"IQSize 0", func(c *Config) { c.IQSize = 0 }},
		{"IQSize 1<<30", func(c *Config) { c.IQSize = 1 << 30 }},
		{"BPHistoryBits 40", func(c *Config) { c.BPHistoryBits = 40 }},
		{"BPHistoryBits -1", func(c *Config) { c.BPHistoryBits = -1 }},
		{"MispredictPenalty -1", func(c *Config) { c.MispredictPenalty = -1 }},
		{"L1D.HitLatency -1", func(c *Config) { c.L1D.HitLatency = -1 }},
		{"MemLatency -1", func(c *Config) { c.MemLatency = -1 }},
		{"L2TLB.HitLatency -1", func(c *Config) { c.L2TLB.HitLatency = -1 }},
		{"TLBMissLatency -1", func(c *Config) { c.TLBMissLatency = -1 }},
		{"StreamBatch -1", func(c *Config) { c.StreamBatch = -1 }},
		{"zero value", func(c *Config) { *c = Config{} }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}

	valid := []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"direct-mapped L1D", func(c *Config) { c.L1D.Assoc = 1 }},
		{"16-way L2", func(c *Config) { c.L2.Assoc = 16 }},
		{"no prefetcher", func(c *Config) { c.PrefetcherEntries = 0 }},
		{"no history", func(c *Config) { c.BPHistoryBits = 0 }},
		{"longest history", func(c *Config) { c.BPHistoryBits = maxBPHistoryBits }},
		{"one-wide, one-entry IQ", func(c *Config) { c.IssueWidth, c.IQSize = 1, 1 }},
		{"zero latencies", func(c *Config) { c.L1D.HitLatency, c.MemLatency, c.MispredictPenalty = 0, 0, 0 }},
		{"StreamBatch 1", func(c *Config) { c.StreamBatch = 1 }},
	}
	for _, tc := range valid {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: Validate rejected a buildable config: %v", tc.name, err)
			continue
		}
		// Every accepted configuration builds, in both structure
		// layouts, and runs a stream to completion.
		for _, mode := range []Mode{ModeShared, ModeSplit} {
			sim := NewSimulator(cfg, mode)
			if _, err := sim.RunContext(context.Background(), &SliceSource{Insts: batchStream(2_000)}); err != nil {
				t.Errorf("%s/%v: %v", tc.name, mode, err)
			}
		}
	}
}

// TestConstructorsShareValidatePredicate checks that the table
// constructors reject exactly the geometries Validate reports, with a
// panic (their contract for a config that skipped validation).
func TestConstructorsShareValidatePredicate(t *testing.T) {
	mustPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: constructor accepted a geometry Validate rejects", name)
			}
		}()
		build()
	}
	mustPanic("cache assoc 0", func() { NewCache(CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 0}) })
	mustPanic("cache size 3", func() { NewCache(CacheConfig{Size: 3, BlockSize: 64, Assoc: 4}) })
	mustPanic("TLB entries 0", func() { NewTLB(TLBConfig{Entries: 0, Assoc: 8}) })
	mustPanic("prefetcher 3", func() { NewStridePrefetcher(3) })
	cfg := DefaultConfig()
	cfg.BTBEntries = 0
	mustPanic("BTB entries 0", func() { NewPredictor(&cfg) })
}
