// Package timing implements the timing simulator of the co-designed
// processor: a configurable in-order RISC host modeled after the
// paper's Table I — a 2-wide decoupled pipeline (Front-End, Instruction
// Queue, Back-End), Gshare branch predictor with BTB, two cache levels
// with PLRU replacement, a two-level data TLB, and a stride prefetcher.
//
// The simulator consumes a dynamic host-instruction stream in which
// every instruction is tagged with its owner (TOL or the emulated
// application) and, for TOL, the TOL component that produced it. Cycles
// and bubbles are attributed per owner and component, which is the
// mechanism behind all of the paper's figures.
package timing

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Size       int // bytes
	BlockSize  int // bytes
	Assoc      int
	HitLatency int // cycles
}

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Entries    int
	Assoc      int
	HitLatency int // cycles
}

// Config holds the microarchitectural parameters (paper Table I).
type Config struct {
	IssueWidth int
	IQSize     int

	// Branch prediction.
	BPHistoryBits     int // Gshare history register length
	BTBEntries        int
	BTBAssoc          int
	MispredictPenalty int // cycles, detected in EXE

	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	MemLatency int // main memory hit latency, cycles

	L1TLB TLBConfig
	L2TLB TLBConfig
	// TLBMissLatency is the page-walk cost on an L2 TLB miss. The walk
	// is served from main memory in this model.
	TLBMissLatency int

	PrefetcherEntries int // stride prefetcher table entries (0 disables)

	// StreamBatch is the number of stream instructions the simulator
	// pulls from its source per refill (0 = DefaultStreamBatch). It is
	// a host-side transport knob: results are identical for every value
	// (the stream-equality tests pin this), only simulation throughput
	// changes. It participates in config hashing like every other
	// field, so memoized results never alias across batch sizes.
	StreamBatch int
}

// DefaultStreamBatch is the stream refill size when Config.StreamBatch
// is zero: large enough to amortize the source call, small enough that
// cancellation polls (one per refill) stay prompt.
const DefaultStreamBatch = 1024

// DefaultConfig returns the configuration of Table I of the paper.
func DefaultConfig() Config {
	return Config{
		IssueWidth:        2,
		IQSize:            16,
		BPHistoryBits:     12,
		BTBEntries:        512,
		BTBAssoc:          4,
		MispredictPenalty: 6,
		L1I:               CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1},
		L1D:               CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 4, HitLatency: 1},
		L2:                CacheConfig{Size: 512 << 10, BlockSize: 128, Assoc: 8, HitLatency: 16},
		MemLatency:        128,
		L1TLB:             TLBConfig{Entries: 64, Assoc: 8, HitLatency: 1},
		L2TLB:             TLBConfig{Entries: 256, Assoc: 8, HitLatency: 16},
		TLBMissLatency:    128,
		PrefetcherEntries: 256,
	}
}

// maxTableEntries bounds every fixed-size table of the host model —
// cache lines, TLB, BTB, predictor and prefetcher entries, the IQ and
// the stream batch — so no configuration can ask a simulator for more
// memory than a run can hold.
const maxTableEntries = 1 << 20

// maxBPHistoryBits is the longest Gshare history: its counter table
// has 1<<BPHistoryBits entries.
const maxBPHistoryBits = 20

// tableSets is the one geometry predicate of the fixed-size tables
// (caches, TLBs, the BTB, and the prefetcher as a direct-mapped
// table): it returns the set count of entries arranged in assoc-way
// sets, or why the table cannot be built. The constructors panic on
// exactly what it rejects, and Config.Validate reports the same error
// before any simulator is built.
func tableSets(entries, assoc int) (int, error) {
	if assoc <= 0 || assoc&(assoc-1) != 0 || assoc > 16 {
		return 0, fmt.Errorf("associativity %d is not a power of two in 1..16", assoc)
	}
	sets := entries / assoc
	if sets <= 0 || sets&(sets-1) != 0 || entries > maxTableEntries {
		return 0, fmt.Errorf("%d entries in %d-way sets is not a power-of-two set count of at most %d entries",
			entries, assoc, maxTableEntries)
	}
	return sets, nil
}

// sets returns the cache's set count, or why the geometry is invalid.
func (c CacheConfig) sets() (int, error) {
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return 0, fmt.Errorf("block size %d is not a positive power of two", c.BlockSize)
	}
	return tableSets(c.Size/c.BlockSize, c.Assoc)
}

// sets returns the TLB's set count, or why the geometry is invalid.
func (c TLBConfig) sets() (int, error) { return tableSets(c.Entries, c.Assoc) }

// Validate rejects configurations the simulator cannot build or run:
// table geometries the constructors reject, an issue width or IQ that
// could never make progress, negative latencies or stream batch, and a
// predictor history beyond maxBPHistoryBits.
func (c *Config) Validate() error {
	if c.IssueWidth < 1 || c.IQSize < 1 || c.IQSize > maxTableEntries {
		return fmt.Errorf("timing: issue width %d and IQ size %d must be at least 1 (IQ at most %d)",
			c.IssueWidth, c.IQSize, maxTableEntries)
	}
	if c.StreamBatch < 0 || c.StreamBatch > maxTableEntries {
		return fmt.Errorf("timing: stream batch %d is outside 0..%d", c.StreamBatch, maxTableEntries)
	}
	if c.MispredictPenalty < 0 || c.MemLatency < 0 || c.TLBMissLatency < 0 {
		return fmt.Errorf("timing: negative latency (mispredict %d, memory %d, TLB miss %d)",
			c.MispredictPenalty, c.MemLatency, c.TLBMissLatency)
	}
	if c.BPHistoryBits < 0 || c.BPHistoryBits > maxBPHistoryBits {
		return fmt.Errorf("timing: branch history of %d bits is outside 0..%d", c.BPHistoryBits, maxBPHistoryBits)
	}
	if _, err := tableSets(c.BTBEntries, c.BTBAssoc); err != nil {
		return fmt.Errorf("timing: BTB: %w", err)
	}
	if _, err := tableSets(c.PrefetcherEntries, 1); err != nil && c.PrefetcherEntries != 0 {
		return fmt.Errorf("timing: prefetcher: %w", err)
	}
	for _, t := range []struct {
		name string
		sets func() (int, error)
		lat  int
	}{
		{"L1I", c.L1I.sets, c.L1I.HitLatency},
		{"L1D", c.L1D.sets, c.L1D.HitLatency},
		{"L2", c.L2.sets, c.L2.HitLatency},
		{"L1TLB", c.L1TLB.sets, c.L1TLB.HitLatency},
		{"L2TLB", c.L2TLB.sets, c.L2TLB.HitLatency},
	} {
		if _, err := t.sets(); err != nil {
			return fmt.Errorf("timing: %s: %w", t.name, err)
		}
		if t.lat < 0 {
			return fmt.Errorf("timing: %s hit latency %d is negative", t.name, t.lat)
		}
	}
	return nil
}
