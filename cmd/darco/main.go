// Command darco runs one or more workloads (or a catalog listing)
// through the full simulation infrastructure and prints the detailed
// result: the execution-time breakdown, TOL component split,
// cache/branch statistics and co-design activity counters.
//
// Usage:
//
//	darco -bench 400.perlbench [-scale f] [-mode shared|app-only|tol-only|split]
//	darco -bench 400.perlbench,470.lbm -jobs 4 -json
//	darco -workload phased:401.bzip2+462.libquantum -cc-size 2048
//	darco -workload file:mybench.json                     # JSON-defined spec
//	darco -bench 470.lbm -record lbm.trace.json           # record a trace...
//	darco -workload trace:lbm.trace.json -O 1             # ...replay it anywhere
//	darco -bench 470.lbm -passes constprop,dce,sched      # ablate one pass
//	darco -bench 470.lbm -O 1 -promote adaptive           # preset + policy
//	darco -bench 470.lbm -cc-size 512 -cc-policy lru-translation
//	darco -bench 470.lbm -sample 4 -interval 200000 -warmup 20000  # sampled simulation
//	darco -bench 470.lbm -server http://host:8080        # run on darco-serve
//	darco -bench 470.lbm -timeout 5m                     # overall deadline
//	darco -list
//	darco -print-config
//
// Workloads are selected by reference through the workload Source
// registry: -workload takes "<source>:<name>" references (synthetic:,
// file:, trace:, phased:), and -bench remains the shorthand for
// synthetic catalog names. With several workloads the runs execute
// concurrently on a darco.Session worker pool (-jobs); the engine is
// deterministic, so the results are identical to sequential runs.
// -json emits an array of darco.Record (full results included), the
// interchange format cmd/darco-figs -from consumes. Interrupting the
// process (Ctrl-C) or exceeding -timeout cancels in-flight simulations
// promptly. With -server the session executes on a remote darco-serve
// instance (cmd/darco-serve) instead of simulating locally; results
// and failure reporting are identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/darco"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "comma-separated benchmark names (see -list)")
	workloadFlag := flag.String("workload", "", "comma-separated workload references (<source>:<name>; sources: "+strings.Join(workload.Sources(), ", ")+")")
	record := flag.String("record", "", "record the selected workload's guest image to this trace file (replay with -workload trace:<file>); requires exactly one workload")
	scale := flag.Float64("scale", 1.0, "workload dynamic-size multiplier")
	var knobs darco.Knobs
	knobs.RegisterFlags(flag.CommandLine)
	flag.StringVar(&knobs.Mode, "mode", timing.ModeShared.String(), "timing mode: shared, app-only, tol-only, split")
	list := flag.Bool("list", false, "list catalog benchmarks and exit")
	printConfig := flag.Bool("print-config", false, "print the Table I host configuration and exit")
	sbth := flag.Int("sbth", 0, "override BB/SBth promotion threshold")
	bbth := flag.Int("bbth", 0, "override IM/BBth promotion threshold")
	jsonOut := flag.Bool("json", false, "emit results as JSON records instead of tables")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "overall deadline for the whole run (0 = none)")
	server := flag.String("server", "", "run on a darco-serve instance at this base URL instead of simulating locally")
	flag.Parse()

	if *printConfig {
		dumpConfig()
		return
	}
	if *list {
		for _, s := range workload.Catalog() {
			fmt.Printf("%-22s %s\n", s.Name, s.Suite)
		}
		fmt.Printf("\nworkload sources: %s\n", strings.Join(workload.Sources(), ", "))
		return
	}
	if *bench == "" && *workloadFlag == "" {
		fmt.Fprintln(os.Stderr, "darco: -bench or -workload required (or -list / -print-config)")
		os.Exit(2)
	}

	cfg := darco.DefaultConfig()
	if *sbth > 0 {
		cfg.TOL.SBThreshold = *sbth
	}
	if *bbth > 0 {
		cfg.TOL.BBThreshold = *bbth
	}
	if err := knobs.Apply(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "darco:", err)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var refs []string
	if *bench != "" {
		for _, name := range strings.Split(*bench, ",") {
			refs = append(refs, workload.RefForISA(strings.TrimSpace(name), cfg.ISA))
		}
	}
	if *workloadFlag != "" {
		for _, ref := range strings.Split(*workloadFlag, ",") {
			refs = append(refs, workload.RefForISA(strings.TrimSpace(ref), cfg.ISA))
		}
	}
	var sessJobs []darco.Job
	for _, ref := range refs {
		job, err := darco.WithWorkload(ref, *scale, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sessJobs = append(sessJobs, job)
	}

	if *record != "" {
		if len(sessJobs) != 1 {
			fmt.Fprintf(os.Stderr, "darco: -record captures exactly one workload, got %d\n", len(sessJobs))
			os.Exit(2)
		}
		if err := workload.RecordTrace(*record, sessJobs[0].Program); err != nil {
			fmt.Fprintln(os.Stderr, "darco:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recorded %s -> %s (replay with -workload trace:%s)\n",
			sessJobs[0].Program.Name(), *record, *record)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sessOpts := []darco.SessionOption{darco.WithWorkers(*jobs)}
	if *server != "" {
		sessOpts = append(sessOpts, darco.WithRemote(serve.NewClient(*server)))
	}
	sess := darco.NewSession(sessOpts...)
	batch := sess.RunBatch(ctx, sessJobs)

	var records []darco.Record
	failed := 0
	for i, br := range batch {
		prog := sessJobs[i].Program
		records = append(records, darco.NewRecord(prog.Name(), prog.Meta().Suite, *scale, cfg.Mode, br.Result, br.Err))
		if br.Err != nil {
			failed++
			if !*jsonOut {
				// Session errors already carry the benchmark name.
				fmt.Fprintln(os.Stderr, br.Err)
			}
		} else if !*jsonOut {
			report(prog, br.Result)
		}
	}
	if *jsonOut {
		if err := darco.EncodeRecords(os.Stdout, records); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func report(prog workload.Program, res *darco.Result) {
	tr := res.Timing
	cyc := float64(tr.Cycles)
	meta := prog.Meta()
	origin := meta.Suite
	if origin == "" {
		origin = meta.Source
	}
	if meta.Phases > 1 {
		origin = fmt.Sprintf("%s, %d phases", origin, meta.Phases)
	}
	fmt.Printf("benchmark        %s (%s)\n", prog.Name(), origin)
	fmt.Printf("guest insts      %d (static %d, dyn/static %.0f)\n",
		res.GuestDyn(), res.TOL.StaticTotal(), res.DynamicStaticRatio())
	fmt.Printf("host insts       %d (app %d, tol %d)\n",
		tr.TotalInsts(), tr.Insts[timing.OwnerApp], tr.Insts[timing.OwnerTOL])
	fmt.Printf("cycles           %d   IPC %.3f\n", tr.Cycles, tr.IPC())
	fmt.Printf("TOL overhead     %.2f%% of execution time\n\n", 100*tr.TOLShare())

	if rep := res.Sampled; rep != nil {
		note := ""
		if rep.FFCached {
			note = "; fast-forward served from store"
		}
		st := stats.NewTable(
			fmt.Sprintf("Sampled estimates (%d of %d intervals measured%s — timing quantities below are estimates)",
				len(rep.Measured), rep.Intervals, note),
			"metric", "estimate", "95% CI", "rel err")
		for _, m := range rep.Metrics {
			st.AddRow(m.Name, fmt.Sprintf("%.6g", m.Estimate),
				fmt.Sprintf("%.3g", m.CI95), stats.Pct(m.RelErr))
		}
		fmt.Println(st.String())
	}

	bt := stats.NewTable("Execution-time breakdown (Fig. 6/7 quantities)", "component", "% of cycles")
	for _, c := range []timing.Component{
		timing.CompApp, timing.CompTOLOther, timing.CompIM, timing.CompBBM,
		timing.CompSBM, timing.CompChaining, timing.CompCodeCacheLookup,
	} {
		bt.AddRowf(2, c.String(), 100*tr.ComponentCycles(c)/cyc)
	}
	fmt.Println(bt.String())

	bb := stats.NewTable("Cycle accounting (Fig. 9 quantities)", "category", "app %", "tol %")
	bb.AddRowf(2, "instructions",
		100*tr.InstCycles[timing.OwnerApp]/cyc, 100*tr.InstCycles[timing.OwnerTOL]/cyc)
	for k := timing.BubbleKind(0); k < timing.NumBubbleKinds; k++ {
		bb.AddRowf(2, k.String()+" bubbles",
			100*tr.Bubbles[timing.OwnerApp][k]/cyc, 100*tr.Bubbles[timing.OwnerTOL][k]/cyc)
	}
	fmt.Println(bb.String())

	ct := stats.NewTable("Microarchitecture", "structure", "accesses", "miss rate")
	ct.AddRow("L1I", fmt.Sprint(tr.L1I.Accesses[0]+tr.L1I.Accesses[1]), stats.Pct(tr.L1I.MissRate()))
	ct.AddRow("L1D", fmt.Sprint(tr.L1D.Accesses[0]+tr.L1D.Accesses[1]), stats.Pct(tr.L1D.MissRate()))
	ct.AddRow("L2", fmt.Sprint(tr.L2.Accesses[0]+tr.L2.Accesses[1]), stats.Pct(tr.L2.MissRate()))
	ct.AddRow("L1 TLB", fmt.Sprint(tr.L1TLB.Accesses[0]+tr.L1TLB.Accesses[1]), stats.Pct(tr.L1TLB.MissRate()))
	ct.AddRow("L2 TLB", fmt.Sprint(tr.L2TLB.Accesses[0]+tr.L2TLB.Accesses[1]), stats.Pct(tr.L2TLB.MissRate()))
	ct.AddRow("branch pred", fmt.Sprint(tr.Branch.Branches[0]+tr.Branch.Branches[1]), stats.Pct(tr.Branch.MispredictRate()))
	fmt.Println(ct.String())

	tt := stats.NewTable("TOL activity", "metric", "value")
	tt.AddRow("mode dyn IM/BBM/SBM", fmt.Sprintf("%d / %d / %d", res.TOL.DynIM, res.TOL.DynBBM, res.TOL.DynSBM))
	im, bbm, sbm := res.TOL.StaticCounts()
	tt.AddRow("mode static IM/BBM/SBM", fmt.Sprintf("%d / %d / %d", im, bbm, sbm))
	tt.AddRow("BBs translated", fmt.Sprint(res.TOL.BBTranslated))
	tt.AddRow("SBM invocations", fmt.Sprint(res.TOL.SBCreated))
	tt.AddRow("chains", fmt.Sprint(res.TOL.Chains))
	tt.AddRow("IBTC fills", fmt.Sprint(res.TOL.IBTCFills))
	tt.AddRow("indirect branches (dyn)", fmt.Sprint(res.TOL.IndirectDyn))
	tt.AddRow("code cache lookups", fmt.Sprint(res.TOL.Lookups))
	tt.AddRow("transitions to TOL", fmt.Sprint(res.TOL.Transitions))
	tt.AddRow("code cache insts", fmt.Sprint(res.CodeCacheInsts))
	tt.AddRow("code cache peak", fmt.Sprint(res.TOL.CacheOccupancyPeak))
	tt.AddRow("evictions / flushes", fmt.Sprintf("%d / %d", res.TOL.Evictions, res.TOL.FlushCount))
	tt.AddRow("retranslations", fmt.Sprint(res.TOL.Retranslations))
	tt.AddRow("cosim checks", fmt.Sprint(res.TOL.CosimChecks))
	fmt.Println(tt.String())

	if len(res.TOL.SBPasses) > 0 {
		sbmCyc := tr.ComponentCycles(timing.CompSBM)
		total := float64(res.TOL.SBMInstTotal())
		pt := stats.NewTable("SBM optimizer by pass (Fig. 7b quantities)",
			"pass", "runs", "visits", "eliminated", "% of SBM time")
		share := func(insts uint64) string {
			if total == 0 {
				return "0.0"
			}
			return fmt.Sprintf("%.1f", 100*float64(insts)/total)
		}
		for _, ps := range res.TOL.SBPasses {
			pt.AddRow(ps.Pass, fmt.Sprint(ps.Runs), fmt.Sprint(ps.Visits),
				fmt.Sprint(ps.Eliminated), share(ps.CostInsts))
		}
		pt.AddRow("(trace+emit)", "", "", "", share(res.TOL.SBOtherInsts))
		pt.AddRow("SBM total", "", "", "", fmt.Sprintf("%.2f%% of cycles", 100*sbmCyc/cyc))
		fmt.Println(pt.String())
	}
}

func dumpConfig() {
	cfg := timing.DefaultConfig()
	t := stats.NewTable("Host processor microarchitectural parameters (paper Table I)",
		"component", "parameter", "value")
	t.AddRow("General", "Issue width", fmt.Sprint(cfg.IssueWidth))
	t.AddRow("Instruction queue", "Size", fmt.Sprint(cfg.IQSize))
	t.AddRow("Branch predictor", "History register bits", fmt.Sprint(cfg.BPHistoryBits))
	t.AddRow("", "Misprediction penalty", fmt.Sprint(cfg.MispredictPenalty))
	t.AddRow("L1 I-Cache", "Size", fmt.Sprint(cfg.L1I.Size))
	t.AddRow("", "Block/Assoc", fmt.Sprintf("%dB/%d", cfg.L1I.BlockSize, cfg.L1I.Assoc))
	t.AddRow("", "Hit latency", fmt.Sprint(cfg.L1I.HitLatency))
	t.AddRow("L1 D-Cache", "Size", fmt.Sprint(cfg.L1D.Size))
	t.AddRow("", "Block/Assoc", fmt.Sprintf("%dB/%d", cfg.L1D.BlockSize, cfg.L1D.Assoc))
	t.AddRow("", "Hit latency", fmt.Sprint(cfg.L1D.HitLatency))
	t.AddRow("Stride prefetcher", "Entries", fmt.Sprint(cfg.PrefetcherEntries))
	t.AddRow("L2 U-Cache", "Size", fmt.Sprint(cfg.L2.Size))
	t.AddRow("", "Block/Assoc", fmt.Sprintf("%dB/%d", cfg.L2.BlockSize, cfg.L2.Assoc))
	t.AddRow("", "Hit latency", fmt.Sprint(cfg.L2.HitLatency))
	t.AddRow("Main memory", "Hit latency", fmt.Sprint(cfg.MemLatency))
	t.AddRow("L1 TLB", "Entries/Assoc", fmt.Sprintf("%d/%d", cfg.L1TLB.Entries, cfg.L1TLB.Assoc))
	t.AddRow("", "Hit latency", fmt.Sprint(cfg.L1TLB.HitLatency))
	t.AddRow("L2 TLB", "Entries/Assoc", fmt.Sprintf("%d/%d", cfg.L2TLB.Entries, cfg.L2TLB.Assoc))
	t.AddRow("", "Hit latency", fmt.Sprint(cfg.L2TLB.HitLatency))
	fmt.Print(t.String())
}
