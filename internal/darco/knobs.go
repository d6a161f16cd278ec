package darco

import (
	"flag"
	"fmt"

	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/tol"
)

// Knobs is a configuration delta over the software layer's knob
// surface — promotion, the SBM pass pipeline, the code cache, the
// timing mode and the sampling plan. It is the one vocabulary every
// surface shares: the command-line flags of the darco tools
// (RegisterFlags), the cells and base of a characterization grid
// (sweep.Value, sweep.Grid) and the fields of a darco-serve submission
// (serve.SubmitRequest). Apply is the single place a delta folds into
// a Config, so a command line, a grid cell and a submission naming the
// same knobs resolve to the identical configuration and therefore the
// identical memo key (Job.Key). Zero values mean "not set" and leave
// the configuration untouched.
type Knobs struct {
	// Mode selects the timing-simulator stream mode ("shared",
	// "app-only", "tol-only", "split").
	Mode string `json:"mode,omitempty"`
	// ISA pins the run to one guest frontend ("x86" or "rv32"; see
	// Config.ISA). Surfaces that take workload references
	// redirect synthetic-catalog references to that frontend's catalog
	// (workload.RefForISA), so an ISA knob sweeps the same benchmark
	// name across frontends.
	ISA string `json:"isa,omitempty"`
	// OptLevel selects an optimization preset 0..3 (nil or negative =
	// keep; 0 disables SBM), Passes an explicit pipeline that overrides
	// the preset's, Promote the tier-promotion policy.
	OptLevel *int   `json:"opt_level,omitempty"`
	Passes   string `json:"passes,omitempty"`
	Promote  string `json:"promote,omitempty"`
	// CCSize bounds the code cache in instruction slots; an explicit 0
	// restores the unbounded cache (clearing the policy too). CCPolicy
	// selects the eviction policy.
	CCSize   *int   `json:"cc_size,omitempty"`
	CCPolicy string `json:"cc_policy,omitempty"`
	// Cosim toggles co-simulation; MaxCycles bounds the run.
	Cosim     *bool  `json:"cosim,omitempty"`
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// StreamBatch sets the simulator's stream refill size (> 0).
	StreamBatch int `json:"stream_batch,omitempty"`
	// Sample switches the run to sampled simulation under the given
	// plan; NoSample restores full detail (overriding a sampled base).
	Sample   *SamplePlan `json:"sample,omitempty"`
	NoSample bool        `json:"no_sample,omitempty"`
	// Timing replaces the whole host microarchitecture configuration
	// (paper Table I), the escape hatch for sweeping any timing
	// parameter without a dedicated knob.
	Timing *timing.Config `json:"timing,omitempty"`

	// flags holds the numeric command-line values bound by
	// RegisterFlags; Apply folds them in. See cliFlags.
	flags *cliFlags
}

// SamplePlan is the sampling-plan knob. Every is required; Interval 0
// and Warmup nil fall back to the sample.DefaultConfig values, and an
// explicit "warmup": 0 is honored.
type SamplePlan struct {
	Every    int     `json:"every"`
	Interval uint64  `json:"interval,omitempty"`
	Warmup   *uint64 `json:"warmup,omitempty"`
}

// cliFlags holds the command-line knobs whose "not given" sentinel
// differs from the meaning of the same value in JSON: -O -1, -cc-size
// 0, -sample 0, -interval 0 and -warmup 0 all leave the configuration
// alone, whereas "cc_size": 0 asks for the unbounded cache and
// "warmup": 0 for no warm-up.
type cliFlags struct {
	optLevel, ccSize, every int
	interval, warmup        uint64
}

// knobs returns the flag values as the equivalent JSON-form delta.
func (f *cliFlags) knobs(k Knobs) Knobs {
	if f.optLevel >= 0 {
		k.OptLevel = &f.optLevel
	}
	if f.ccSize > 0 {
		k.CCSize = &f.ccSize
	}
	if f.every > 0 {
		k.Sample = &SamplePlan{Every: f.every, Interval: f.interval}
		if f.warmup > 0 {
			k.Sample.Warmup = &f.warmup
		}
	}
	return k
}

// RegisterFlags binds the knob flags shared by the darco tools to fs:
// -isa -cosim -O -passes -promote -cc-size -cc-policy -sample
// -interval -warmup. The parsed values take effect when Apply runs
// after fs.Parse. -cosim defaults to true and is always applied; every
// other flag left at its default leaves the configuration untouched.
// The tools that expose a timing mode bind -mode to k.Mode themselves.
func (k *Knobs) RegisterFlags(fs *flag.FlagSet) {
	f := &cliFlags{}
	k.flags = f
	k.Cosim = new(bool)
	fs.StringVar(&k.ISA, "isa", "", "guest ISA frontend: x86 or rv32 (default: per-program; benchmark names resolve through the selected frontend's catalog)")
	fs.BoolVar(k.Cosim, "cosim", true, "verify against the authoritative emulator")
	fs.IntVar(&f.optLevel, "O", -1, "optimization preset 0..3 (-1 = default O2; 0 disables SBM)")
	fs.StringVar(&k.Passes, "passes", "", "SBM optimization pipeline (comma-separated pass names; 'none' = empty)")
	fs.StringVar(&k.Promote, "promote", "", "tier-promotion policy: fixed, adaptive")
	fs.IntVar(&f.ccSize, "cc-size", 0, "bound the code cache to this many instruction slots (0 = unbounded)")
	fs.StringVar(&k.CCPolicy, "cc-policy", "", "code cache eviction policy: flush-all, fifo-region, lru-translation")
	fs.IntVar(&f.every, "sample", 0, "sampled simulation: measure every Nth interval in detail (0 = full detailed run)")
	fs.Uint64Var(&f.interval, "interval", 0, "sampled simulation: interval length in guest instructions (0 = default)")
	fs.Uint64Var(&f.warmup, "warmup", 0, "sampled simulation: detailed warm-up instructions before each measured interval (0 = default)")
}

// Apply folds the knobs into cfg. It rejects an unknown mode, an
// out-of-range optimization level and the contradictory pair of
// level 0 with an explicit pipeline; everything else is checked by
// cfg.Validate once every delta is folded in, because a knob may leave
// a state a later one completes (a policy without its capacity).
func (k *Knobs) Apply(cfg *Config) error {
	if k == nil {
		return nil
	}
	d := *k
	if k.flags != nil {
		d = k.flags.knobs(d)
	}
	if d.Timing != nil {
		cfg.Timing = *d.Timing
	}
	if d.Mode != "" {
		m, err := timing.ParseMode(d.Mode)
		if err != nil {
			return err
		}
		cfg.Mode = m
	}
	if d.ISA != "" {
		cfg.ISA = d.ISA
	}
	if d.Cosim != nil {
		cfg.TOL.Cosim = *d.Cosim
	}
	if d.MaxCycles != 0 {
		cfg.MaxCycles = d.MaxCycles
	}
	if d.StreamBatch > 0 {
		cfg.Timing.StreamBatch = d.StreamBatch
	}
	if d.CCSize != nil {
		cfg.TOL.Cache.CapacityInsts = *d.CCSize
		if *d.CCSize == 0 {
			cfg.TOL.Cache.Policy = ""
		}
	}
	if d.CCPolicy != "" {
		cfg.TOL.Cache.Policy = d.CCPolicy
	}
	if d.OptLevel != nil && *d.OptLevel >= 0 {
		if *d.OptLevel == 0 && d.Passes != "" {
			return fmt.Errorf("darco: -O 0 disables SBM, so -passes %q would never run; drop one of the knobs", d.Passes)
		}
		if err := tol.ApplyOptLevel(&cfg.TOL, *d.OptLevel); err != nil {
			return err
		}
	}
	if d.Passes != "" {
		cfg.TOL.Passes = d.Passes
		cfg.TOL.OptLevel = ""
	}
	if d.Promote != "" {
		cfg.TOL.Promotion = d.Promote
	}
	if d.NoSample {
		cfg.Sampling = nil
	}
	if d.Sample != nil {
		sc := sample.DefaultConfig()
		sc.Every = d.Sample.Every
		if d.Sample.Interval > 0 {
			sc.Interval = d.Sample.Interval
		}
		if d.Sample.Warmup != nil {
			sc.Warmup = *d.Sample.Warmup
		}
		cfg.Sampling = &sc
	}
	return nil
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
