package darco

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// hotProgram is a small loop that promotes to SBM quickly under a low
// threshold.
func hotProgram() *guest.Program {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0)
	b.MovRI(guest.ECX, 2000)
	b.Label("loop")
	b.AddRR(guest.EAX, guest.ECX)
	b.XorRI(guest.EAX, 0x55)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	return b.MustBuild()
}

// hotConfig lowers the superblock threshold so hotProgram reaches SBM.
func hotConfig(cosim bool) Config {
	c := DefaultConfig()
	c.TOL.SBThreshold = 50
	c.TOL.Cosim = cosim
	return c
}

// TestRecordPassStatsRoundTrip: the per-pass SBM breakdown must
// survive the Record JSON interchange (darco-suite -json →
// darco-figs -from) exactly.
func TestRecordPassStatsRoundTrip(t *testing.T) {
	res, err := hotConfig(false).Run(context.Background(), hotProgram())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TOL.SBPasses) == 0 {
		t.Fatal("run produced no per-pass stats")
	}

	rec := NewRecord("hotloop", "test", 1.0, timing.ModeShared, res, nil)
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, []Record{rec}); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Result == nil {
		t.Fatalf("decoded %d records", len(recs))
	}
	if !reflect.DeepEqual(recs[0].Result.TOL.SBPasses, res.TOL.SBPasses) {
		t.Fatalf("SBPasses did not round-trip:\n got %+v\nwant %+v",
			recs[0].Result.TOL.SBPasses, res.TOL.SBPasses)
	}
	if recs[0].Result.TOL.SBOtherInsts != res.TOL.SBOtherInsts {
		t.Fatal("SBOtherInsts did not round-trip")
	}
	if !reflect.DeepEqual(recs[0].Summary.TOL.SBPasses, res.TOL.Summary().SBPasses) {
		t.Fatal("Summary.SBPasses did not round-trip")
	}
}

// TestPipelineResultDeterminism: one pipeline spec ⇒ byte-identical
// Result JSON across repeated runs (the property the Session cache and
// the figure harness rely on).
func TestPipelineResultDeterminism(t *testing.T) {
	run := func() string {
		cfg := hotConfig(false)
		cfg.TOL.Passes = "dce,constprop,rle,sched"
		cfg.TOL.OptLevel = ""
		cfg.TOL.Promotion = "adaptive"
		res, err := cfg.Run(context.Background(), hotProgram())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if run() != run() {
		t.Fatal("same pipeline spec produced different Result JSON")
	}
}

// TestRunValidatesConfig: bad pipeline and policy specs must fail fast
// with a clear error from Run, RunInteraction and Session.Run alike.
func TestRunValidatesConfig(t *testing.T) {
	ctx := context.Background()
	p := hotProgram()
	with := func(edit func(*Config)) Config {
		c := DefaultConfig()
		edit(&c)
		return c
	}
	bogusPasses := with(func(c *Config) { c.TOL.Passes = "bogus" })

	if _, err := bogusPasses.Run(ctx, p); err == nil ||
		!strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("Run with bad pipeline: %v", err)
	}
	if _, err := with(func(c *Config) { c.TOL.Promotion = "bogus" }).Run(ctx, p); err == nil ||
		!strings.Contains(err.Error(), "unknown promotion policy") {
		t.Fatalf("Run with bad policy: %v", err)
	}
	if _, err := with(func(c *Config) { c.TOL.OptLevel = "O9" }).Run(ctx, p); err == nil ||
		!strings.Contains(err.Error(), "optimization level") {
		t.Fatalf("Run with bad opt level: %v", err)
	}
	if _, err := with(func(c *Config) { c.Timing.L1D.Assoc = 0 }).Run(ctx, p); err == nil ||
		!strings.Contains(err.Error(), "L1D") {
		t.Fatalf("Run with bad cache geometry: %v", err)
	}
	if _, err := RunInteraction(ctx, p, bogusPasses); err == nil {
		t.Fatal("RunInteraction with bad pipeline succeeded")
	}

	// Passes "none" alone leaves SBM enabled: rejected.
	if _, err := with(func(c *Config) { c.TOL.Passes = tol.PassesNone }).Run(ctx, p); err == nil ||
		!strings.Contains(err.Error(), "empty optimization pipeline") {
		t.Fatalf("Run with empty pipeline + SBM: %v", err)
	}

	sess := NewSession(WithWorkers(1))
	var failed int
	sessEv := NewSession(WithWorkers(1), WithEvents(func(ev Event) {
		if ev.Kind == EventFailed {
			failed++
		}
	}))
	job := Job{Name: "bad", Program: workload.Func("bad", func() (*guest.Program, error) { return p, nil }),
		Config: bogusPasses}
	if _, err := sess.Run(ctx, job); err == nil {
		t.Fatal("Session.Run with bad pipeline succeeded")
	}
	if _, err := sessEv.Run(ctx, job); err == nil {
		t.Fatal("Session.Run with bad pipeline succeeded")
	}
	// A Job literal that leaves Config out has a zero Config, which
	// fails validation instead of simulating garbage.
	if _, err := sessEv.Run(ctx, Job{Name: "zero", Program: job.Program}); err == nil {
		t.Fatal("Session.Run with a zero Config succeeded")
	}
	if failed != 2 {
		t.Fatalf("expected two EventFailed, got %d", failed)
	}
}

// TestWithOptLevelZero: O0 stops at BBM (no superblocks, no per-pass
// stats) and still computes correctly.
func TestWithOptLevelZero(t *testing.T) {
	cfg := hotConfig(true)
	if err := tol.ApplyOptLevel(&cfg.TOL, 0); err != nil {
		t.Fatal(err)
	}
	res, err := cfg.Run(context.Background(), hotProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.TOL.SBCreated != 0 || res.TOL.DynSBM != 0 || len(res.TOL.SBPasses) != 0 {
		t.Fatalf("O0 ran SBM: %+v", res.TOL.Summary())
	}
	if res.TOL.DynBBM == 0 {
		t.Fatal("O0 never reached BBM")
	}
}

// TestOptLevelsOrdered: a catalog benchmark under O0..O3 — higher
// levels may only shrink the emitted superblock code, and every level
// stays deterministic and correct (cosim on).
func TestOptLevelsOrdered(t *testing.T) {
	spec, err := workload.ByName("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scale(0.25)
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var prevCC int
	for level := 1; level <= 3; level++ {
		cfg := DefaultConfig()
		cfg.TOL.Cosim = true
		if err := tol.ApplyOptLevel(&cfg.TOL, level); err != nil {
			t.Fatal(err)
		}
		res, err := cfg.Run(context.Background(), p)
		if err != nil {
			t.Fatalf("O%d: %v", level, err)
		}
		if res.TOL.SBCreated == 0 {
			t.Fatalf("O%d created no superblocks", level)
		}
		if level > 1 && res.CodeCacheInsts > prevCC {
			t.Errorf("O%d emitted more code (%d) than O%d (%d)",
				level, res.CodeCacheInsts, level-1, prevCC)
		}
		prevCC = res.CodeCacheInsts
	}
}
