package darco

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/tol"
)

// Option mutates the configuration of a run. Options are applied in
// order on top of DefaultConfig, so later options win; WithConfig
// replaces the whole configuration and is therefore usually first.
type Option func(*Config)

// WithConfig replaces the entire base configuration.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithMode selects the timing-simulator stream mode (shared, app-only,
// tol-only, split).
func WithMode(m timing.Mode) Option {
	return func(c *Config) { c.Mode = m }
}

// WithISA pins the run to one guest frontend ("x86" or "rv32"):
// programs decoding under any other frontend are rejected before
// simulating, which is the guard the -isa flag of the darco tools rests
// on. The empty string restores the default — accept whatever frontend
// the program declares. Unknown ISA names are rejected by
// Config.Validate before the run starts.
func WithISA(name string) Option {
	return func(c *Config) { c.ISA = name }
}

// WithTOLConfig replaces the TOL policy configuration (thresholds,
// feature switches, co-simulation).
func WithTOLConfig(tc tol.Config) Option {
	return func(c *Config) { c.TOL = tc }
}

// WithTiming replaces the host microarchitecture configuration
// (paper Table I).
func WithTiming(tc timing.Config) Option {
	return func(c *Config) { c.Timing = tc }
}

// WithMaxCycles bounds the timing simulation (0 restores the default
// runaway guard).
func WithMaxCycles(n uint64) Option {
	return func(c *Config) { c.MaxCycles = n }
}

// WithCosim toggles continuous co-simulation against the authoritative
// guest emulator.
func WithCosim(on bool) Option {
	return func(c *Config) { c.TOL.Cosim = on }
}

// WithPasses selects the SBM optimization pass pipeline as a
// comma-separated list of registered pass names (tol.ParsePipeline
// spec, e.g. "constprop,dce,rle,sched"; "none" is the empty pipeline
// and requires SBM to be disabled). Unknown pass names are rejected by
// Config.Validate before the run starts.
func WithPasses(spec string) Option {
	return func(c *Config) {
		c.TOL.Passes = spec
		c.TOL.OptLevel = ""
	}
}

// WithOptLevel selects a preset optimization level 0..3 (tol.ApplyOptLevel):
// O0 disables SBM entirely, O1 = constprop+dce, O2 = the paper's full
// pipeline (the default), O3 = O2 with a second propagation round.
// Out-of-range levels are rejected by Config.Validate before the run
// starts.
func WithOptLevel(level int) Option {
	return func(c *Config) {
		if err := tol.ApplyOptLevel(&c.TOL, level); err != nil {
			// Record the bad level so validation fails fast with a clear
			// message instead of silently running a default.
			c.TOL.Passes = ""
			c.TOL.OptLevel = fmt.Sprintf("O%d", level)
		}
	}
}

// WithPromotion selects the tier-promotion policy ("fixed" — the
// paper's thresholds — or "adaptive" back-off). Unknown names are
// rejected by Config.Validate before the run starts.
func WithPromotion(name string) Option {
	return func(c *Config) { c.TOL.Promotion = name }
}

// WithCodeCache bounds the translation code cache to capacityInsts
// instruction slots under the named eviction policy ("flush-all",
// "fifo-region" or "lru-translation"; "" selects flush-all). A zero
// capacity restores the unbounded cache, which is cycle-identical to
// the pre-bounded infrastructure. Degenerate bounds and unknown policy
// names are rejected by Config.Validate before the run starts.
func WithCodeCache(capacityInsts int, policy string) Option {
	return func(c *Config) {
		c.TOL.Cache = tol.CacheConfig{CapacityInsts: capacityInsts, Policy: policy}
	}
}

// ApplyCacheFlags applies a -cc-size/-cc-policy pair to a TOL config.
// capacity <= 0 and empty policy mean "flag not given" and leave the
// config untouched; Config.Validate rejects bad bounds and unknown
// policies before simulating. Knobs is the full knob vocabulary.
func ApplyCacheFlags(tc *tol.Config, capacity int, policy string) {
	if capacity > 0 {
		tc.Cache.CapacityInsts = capacity
	}
	if policy != "" {
		tc.Cache.Policy = policy
	}
}

// WithSampling switches the run to SimPoint-style sampled simulation
// under the given plan: functional fast-forward with checkpoints at
// interval boundaries, detailed simulation of every Every-th interval
// (in parallel, after Warmup instructions of detailed warm-up), and
// whole-run timing reconstructed as estimates with 95% error bars
// (Result.Sampled). TOL statistics and the final guest state stay
// exact. Degenerate plans are rejected by Config.Validate before the
// run starts.
func WithSampling(sc sample.Config) Option {
	return func(c *Config) { c.Sampling = &sc }
}

// WithoutSampling restores full detailed simulation (the default),
// overriding an earlier WithSampling or a sampled base config.
func WithoutSampling() Option {
	return func(c *Config) { c.Sampling = nil }
}

// WithProgress installs a periodic in-run progress callback. The
// callback is invoked from inside the timing simulator's cycle loop
// and must not block for long; it cannot affect results.
func WithProgress(fn ProgressFunc) Option {
	return func(c *Config) { c.Progress = fn }
}

// WithProgressInterval sets the WithProgress callback period in
// simulated cycles (0 = the simulator's default).
func WithProgressInterval(cycles uint64) Option {
	return func(c *Config) { c.ProgressEvery = cycles }
}
