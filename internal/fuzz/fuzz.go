// Package fuzz is the differential-fuzzing harness of the simulation
// infrastructure: it generates random-but-valid guest programs (the
// workload fuzz: source), runs them through the co-design component
// under a matrix of configurations with co-simulation enabled, and
// cross-checks every run against the authoritative x86 emulator and
// against the other configurations. Any disagreement — a cosim
// divergence inside one run, or two configurations retiring different
// instruction counts or final states — is a translator bug by
// definition: the optimization pipeline, promotion policy, eviction
// policy and stream batching must never change architectural results.
//
// The pieces:
//
//   - Cell / SmokeMatrix / FullMatrix (this file): one configuration
//     point and the curated/full matrices the oracle sweeps.
//   - Oracle (oracle.go): runs one spec across the matrix through a
//     darco.Session, classifies failures, aggregates a coverage report,
//     and optionally cross-checks snapshot-mid-run/resume and
//     sampled-vs-full execution.
//   - Minimize (minimize.go): greedily shrinks a diverging spec via
//     workload.Spec.Shrink while the divergence reproduces, then files
//     the reproducer as a committed trace: regression artifact under
//     testdata/regressions/ (replayed by regress_test.go).
//
// The oracle is itself verified by mutation testing: tol.Config.Fault
// injects a named translator bug (tol.FaultDropInc,
// tol.FaultRLEStaleBase) and the tests assert the injected bug is
// caught and minimized to a tiny reproducer. tools/fuzzrun is the
// command-line driver; FuzzTranslatorCosim and FuzzSnapshotResume are
// native go-fuzz entry points over the same Spec encoding.
package fuzz

import (
	"errors"
	"fmt"

	"repro/internal/darco"
	"repro/internal/tol"
)

// Cell is one point of the configuration matrix: the knobs that must
// not change architectural behaviour.
type Cell struct {
	// OptLevel selects the O0–O3 pass-pipeline preset.
	OptLevel int `json:"opt_level"`
	// CacheInsts bounds the code cache (0 = unbounded) and CachePolicy
	// names the eviction policy consulted under pressure.
	CacheInsts  int    `json:"cache_insts,omitempty"`
	CachePolicy string `json:"cache_policy,omitempty"`
	// Promotion names the tier-promotion policy ("" = fixed).
	Promotion string `json:"promotion,omitempty"`
	// StreamBatch overrides the timing simulator's stream refill size
	// (0 = default).
	StreamBatch int `json:"stream_batch,omitempty"`
}

// Name renders the cell compactly for labels and reports, e.g.
// "O2/lru-translation@4096/adaptive/batch1".
func (c Cell) Name() string {
	s := fmt.Sprintf("O%d", c.OptLevel)
	if c.CacheInsts > 0 {
		policy := c.CachePolicy
		if policy == "" {
			policy = "flush-all"
		}
		s += fmt.Sprintf("/%s@%d", policy, c.CacheInsts)
	}
	if c.Promotion != "" {
		s += "/" + c.Promotion
	}
	if c.StreamBatch > 0 {
		s += fmt.Sprintf("/batch%d", c.StreamBatch)
	}
	return s
}

// Config renders the cell as a run configuration. Co-simulation is
// always on — it is the per-instruction half of the oracle — and
// maxGuestInsts guards against generated programs that outrun their
// estimate. An out-of-range OptLevel is kept in the config for
// Config.Validate to reject.
func (c Cell) Config(maxGuestInsts uint64) darco.Config {
	cfg := darco.DefaultConfig()
	if err := tol.ApplyOptLevel(&cfg.TOL, c.OptLevel); err != nil {
		cfg.TOL.Passes, cfg.TOL.OptLevel = "", fmt.Sprintf("O%d", c.OptLevel)
	}
	cfg.TOL.Cosim = true
	cfg.TOL.MaxGuestInsts = maxGuestInsts
	cfg.Timing.StreamBatch = c.StreamBatch
	if c.CacheInsts > 0 {
		cfg.TOL.Cache = tol.CacheConfig{CapacityInsts: c.CacheInsts, Policy: c.CachePolicy}
	}
	if c.Promotion != "" {
		cfg.TOL.Promotion = c.Promotion
	}
	return cfg
}

// SmokeMatrix is the curated matrix for CI and the default fuzzrun
// sweep: every optimization level, every eviction policy plus the
// unbounded cache, both promotion policies, and both extreme stream
// batch sizes appear in at least one cell, at a fraction of the full
// cross product's cost.
func SmokeMatrix() []Cell {
	return []Cell{
		{OptLevel: 0},
		{OptLevel: 1, StreamBatch: 1},
		{OptLevel: 2},
		{OptLevel: 3, Promotion: "adaptive"},
		{OptLevel: 2, CacheInsts: 4096, CachePolicy: "flush-all"},
		{OptLevel: 2, CacheInsts: 4096, CachePolicy: "fifo-region"},
		{OptLevel: 3, CacheInsts: 4096, CachePolicy: "lru-translation"},
		{OptLevel: 1, CacheInsts: 8192, CachePolicy: "lru-translation", Promotion: "adaptive"},
	}
}

// FullMatrix is the full cross product — O0–O3 × {unbounded, flush-all,
// fifo-region, lru-translation} × {fixed, adaptive} × {batch 1, batch
// default} — for nightly-depth runs.
func FullMatrix() []Cell {
	var out []Cell
	for opt := 0; opt <= 3; opt++ {
		for _, cache := range []struct {
			insts  int
			policy string
		}{{0, ""}, {4096, "flush-all"}, {4096, "fifo-region"}, {4096, "lru-translation"}} {
			for _, promo := range []string{"", "adaptive"} {
				for _, batch := range []int{0, 1} {
					out = append(out, Cell{
						OptLevel:    opt,
						CacheInsts:  cache.insts,
						CachePolicy: cache.policy,
						Promotion:   promo,
						StreamBatch: batch,
					})
				}
			}
		}
	}
	return out
}

// Matrix resolves a matrix name ("smoke" or "full") — the -configs
// vocabulary of tools/fuzzrun and the CI jobs.
func Matrix(name string) ([]Cell, error) {
	switch name {
	case "", "smoke":
		return SmokeMatrix(), nil
	case "full":
		return FullMatrix(), nil
	}
	return nil, fmt.Errorf("fuzz: unknown config matrix %q (want smoke or full)", name)
}

// AsDivergence extracts the structured cosim divergence from a run
// error, if it carries one.
func AsDivergence(err error) (*tol.DivergenceError, bool) {
	var div *tol.DivergenceError
	if errors.As(err, &div) {
		return div, true
	}
	return nil, false
}
