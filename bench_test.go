// Benchmark harness: one benchmark per paper table/figure, each
// regenerating the corresponding rows on a representative benchmark
// subset (use cmd/darco-figs for the full 48-benchmark catalog), plus
// micro-benchmarks of the core engines.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/darco"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// figSubset is a representative slice of the catalog: one benchmark
// per characterization regime the paper analyzes.
var figSubset = []string{
	"462.libquantum",    // extreme dynamic/static ratio
	"470.lbm",           // high-ratio FP outlier
	"400.perlbench",     // indirect-branch dominated
	"107.novis_ragdoll", // low ratio, high IM activity
	"007.jpg2000enc",    // ratio close to the promotion threshold
	"000.cjpeg",         // low repetition, sizeable static code
}

func figRunner(b *testing.B, scale float64) *experiments.Runner {
	b.Helper()
	opts := experiments.DefaultOptions()
	opts.Scale = scale
	opts.Benchmarks = figSubset
	opts.Config.TOL.Cosim = false
	r, err := experiments.NewRunner(opts)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTableIConfig exercises construction of the Table I host
// model (all structures allocated and validated).
func BenchmarkTableIConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := timing.NewSimulator(timing.DefaultConfig(), timing.ModeShared)
		if sim == nil {
			b.Fatal("nil simulator")
		}
	}
}

// BenchmarkFig5Distribution regenerates Figure 5a/5b rows.
func BenchmarkFig5Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figRunner(b, 0.25)
		if _, _, err := r.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Breakdown regenerates Figure 6 rows.
func BenchmarkFig6Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figRunner(b, 0.25)
		if _, err := r.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7TOLComponents regenerates Figure 7 rows.
func BenchmarkFig7TOLComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figRunner(b, 0.25)
		if _, err := r.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8TOLPerformance regenerates Figure 8 rows (TOL isolated).
func BenchmarkFig8TOLPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figRunner(b, 0.25)
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Bubbles regenerates Figure 9 rows.
func BenchmarkFig9Bubbles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figRunner(b, 0.25)
		if _, err := r.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Interaction regenerates Figure 10 rows (two timing
// runs per benchmark).
func BenchmarkFig10Interaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figRunner(b, 0.25)
		if _, err := r.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Potential regenerates Figure 11a/11b rows.
func BenchmarkFig11Potential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figRunner(b, 0.25)
		if _, _, err := r.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Core micro-benchmarks ----

func buildHotLoop(iters int32) *guest.Program {
	bld := guest.NewBuilder()
	bld.Label("start")
	bld.MovRI(guest.EAX, 0)
	bld.MovRI(guest.ECX, iters)
	bld.Label("loop")
	bld.AddRR(guest.EAX, guest.ECX)
	bld.XorRI(guest.EAX, 0x55)
	bld.Dec(guest.ECX)
	bld.CmpRI(guest.ECX, 0)
	bld.Jcc(guest.CondNE, "loop")
	bld.Halt()
	return bld.MustBuild()
}

// BenchmarkReferenceEmulator measures raw guest interpretation speed.
func BenchmarkReferenceEmulator(b *testing.B) {
	p := buildHotLoop(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := emu.New(p)
		if err := e.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFunctional measures the co-design component without
// timing simulation (stream discarded).
func BenchmarkEngineFunctional(b *testing.B) {
	p := buildHotLoop(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := tol.DefaultConfig()
		cfg.Cosim = false
		eng := tol.NewEngine(cfg, p)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline measures engine + timing simulator end to end.
func BenchmarkFullPipeline(b *testing.B) {
	p := buildHotLoop(10_000)
	cfg := darco.DefaultConfig()
	cfg.TOL.Cosim = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cfg.Run(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Timing.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
	b.ReportMetric(float64(10_000*6), "guest-insts/op")
}

// BenchmarkTimingSimulator measures the cycle model alone on a
// synthetic stream.
func BenchmarkTimingSimulator(b *testing.B) {
	var insts []timing.DynInst
	pc := uint32(0x100000)
	for i := 0; i < 10_000; i++ {
		d := timing.DynInst{
			PC: pc + uint32(i%256)*4, Owner: timing.OwnerApp,
			Dst: uint8(1 + i%8), Src1: timing.RegNone, Src2: timing.RegNone,
		}
		if i%5 == 0 {
			d.IsLoad = true
			d.MemAddr = 0x40000000 + uint32(i%4096)*64
		}
		insts = append(insts, d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := timing.NewSimulator(timing.DefaultConfig(), timing.ModeShared)
		if _, err := sim.Run(&timing.SliceSource{Insts: insts}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10_000, "insts/op")
}

// BenchmarkWorkloadBuild measures benchmark synthesis.
func BenchmarkWorkloadBuild(b *testing.B) {
	spec, err := workload.ByName("403.gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizePipeline compares the engine's end-to-end cost
// under the O0 (no SBM optimizer) and O3 (two propagation rounds +
// RLE + scheduling) presets, so the optimizer's own cost is tracked
// over time alongside its benefit.
func BenchmarkOptimizePipeline(b *testing.B) {
	for _, level := range []int{0, 3} {
		b.Run(fmt.Sprintf("O%d", level), func(b *testing.B) {
			p := buildHotLoop(2_000)
			cfg := tol.DefaultConfig()
			cfg.Cosim = false
			cfg.SBThreshold = 50
			if err := tol.ApplyOptLevel(&cfg, level); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := tol.NewEngine(cfg, p)
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				if level > 0 && eng.Stats.SBCreated == 0 {
					b.Fatal("no superblock created")
				}
			}
		})
	}
}

// BenchmarkSteadyStateTranslated measures the translated-execution
// hot path alone: a warmed engine (translations built, chains patched,
// arenas grown) streaming batches. The b.ReportMetric allocs/step
// figure must stay at zero — the alloc-regression tests enforce it,
// this benchmark tracks the cycle cost.
func BenchmarkSteadyStateTranslated(b *testing.B) {
	cfg := tol.DefaultConfig()
	cfg.Cosim = false
	eng := tol.NewEngine(cfg, buildHotLoop(2_000_000_000))
	buf := make([]timing.DynInst, 1024)
	for warmed := 0; warmed < 200_000; {
		n := eng.NextBatch(buf)
		if n == 0 {
			b.Fatal(eng.Err())
		}
		warmed += n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for got := 0; got < 10_000; {
			n := eng.NextBatch(buf)
			if n == 0 {
				b.Fatal(eng.Err())
			}
			got += n
		}
	}
	b.ReportMetric(10_000, "insts/op")
}

// BenchmarkSteadyStateInterp measures the interpreter hot path alone
// (translation disabled via an unreachable threshold): decode-cache
// hits, cost-stream emission, profile bumps.
func BenchmarkSteadyStateInterp(b *testing.B) {
	cfg := tol.DefaultConfig()
	cfg.Cosim = false
	cfg.BBThreshold = 1 << 30
	eng := tol.NewEngine(cfg, buildHotLoop(2_000_000_000))
	buf := make([]timing.DynInst, 1024)
	for warmed := 0; warmed < 100_000; {
		n := eng.NextBatch(buf)
		if n == 0 {
			b.Fatal(eng.Err())
		}
		warmed += n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for got := 0; got < 10_000; {
			n := eng.NextBatch(buf)
			if n == 0 {
				b.Fatal(eng.Err())
			}
			got += n
		}
	}
	b.ReportMetric(10_000, "insts/op")
}

// BenchmarkSBMOptimizer measures superblock formation + optimization +
// scheduling via repeated promotion of a fresh engine's hot loop.
func BenchmarkSBMOptimizer(b *testing.B) {
	p := buildHotLoop(2_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := tol.DefaultConfig()
		cfg.Cosim = false
		cfg.SBThreshold = 50
		eng := tol.NewEngine(cfg, p)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if eng.Stats.SBCreated == 0 {
			b.Fatal("no superblock created")
		}
	}
}
