// Command darco-suite runs benchmark suites through the simulation
// infrastructure and prints a per-benchmark summary (the quantities
// behind Figures 5–8 in one table), plus suite averages.
//
// Usage:
//
//	darco-suite [-scale f] [-suite name] [-bench name] [-mode m] [-jobs n] [-csv|-json]
//	darco-suite -O 1 -promote adaptive     # sweep under an ablated TOL config
//	darco-suite -passes constprop,dce,sched
//	darco-suite -cc-size 1024 -cc-policy flush-all  # bounded code cache
//	darco-suite -sample 4 -interval 200000          # sampled simulation
//	darco-suite -workload trace:run.trace.json,phased:401.bzip2+470.lbm
//	darco-suite -server http://host:8080 -timeout 30m  # run on darco-serve
//
// -workload adds programs by Source-registry reference
// ("<source>:<name>") to the selected set; given alone it replaces the
// catalog, so a suite run over only traces or composites needs no
// other flag.
//
// Benchmarks execute concurrently on a darco.Session worker pool
// (-jobs); the engine is deterministic, so the table is identical for
// any worker count. A failing benchmark no longer kills the sweep:
// the remaining benchmarks still run, the failures are reported in a
// per-benchmark error summary at the end, and the exit status is
// non-zero. -json emits an array of darco.Record (full results
// included), the interchange format cmd/darco-figs -from consumes.
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
	scale := flag.Float64("scale", 1.0, "workload dynamic-size multiplier")
	suite := flag.String("suite", "", "restrict to one suite (int, fp, physics, media)")
	bench := flag.String("bench", "", "restrict to one benchmark (exact name)")
	var knobs darco.Knobs
	knobs.RegisterFlags(flag.CommandLine)
	flag.StringVar(&knobs.Mode, "mode", timing.ModeShared.String(), "timing mode: shared, app-only, tol-only, split")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonOut := flag.Bool("json", false, "emit JSON records (full results) instead of a table")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	workloadFlag := flag.String("workload", "", "comma-separated workload references (<source>:<name>) added to the selection")
	verbose := flag.Bool("v", false, "progress to stderr")
	timeout := flag.Duration("timeout", 0, "overall deadline for the whole sweep (0 = none)")
	server := flag.String("server", "", "run on a darco-serve instance at this base URL instead of simulating locally")
	flag.Parse()

	cfg := darco.DefaultConfig()
	if err := knobs.Apply(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "darco-suite:", err)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "darco-suite:", err)
		os.Exit(2)
	}

	var specs []workload.Spec
	switch {
	case *bench != "":
		s, err := workload.ByName(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		specs = []workload.Spec{s}
	case *suite != "":
		su, err := workload.ParseSuite(*suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-suite:", err)
			os.Exit(2)
		}
		specs = workload.BySuite(su)
	case *workloadFlag == "":
		if cfg.ISA == "rv32" {
			// The RV32I frontend ships a starter subset of the catalog;
			// sweeping the full x86 catalog under -isa rv32 would fail on
			// every unported entry.
			specs = workload.RV32Catalog()
		} else {
			specs = workload.Catalog()
		}
	}
	refs := make([]string, 0, len(specs))
	for _, s := range specs {
		refs = append(refs, workload.RefForISA(s.Name, cfg.ISA))
	}
	if *workloadFlag != "" {
		for _, ref := range strings.Split(*workloadFlag, ",") {
			refs = append(refs, workload.RefForISA(strings.TrimSpace(ref), cfg.ISA))
		}
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
	if *verbose {
		sessOpts = append(sessOpts, darco.WithEvents(func(ev darco.Event) {
			if ev.Kind == darco.EventStarted {
				fmt.Fprintf(os.Stderr, "running %s...\n", ev.Job)
			}
		}))
	}
	sess := darco.NewSession(sessOpts...)
	var sessJobs []darco.Job
	for _, ref := range refs {
		job, err := darco.WithWorkload(ref, *scale, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-suite:", err)
			os.Exit(2)
		}
		sessJobs = append(sessJobs, job)
	}
	batch := sess.RunBatch(ctx, sessJobs)

	t := stats.NewTable("DARCO suite summary",
		"benchmark", "suite", "guest-dyn", "static", "ratio", "cycles", "IPC",
		"tol%", "im%", "bbm%", "sbm%", "dyn-sbm%", "sbs", "ind/K", "chains", "transitions")

	var records []darco.Record
	var failures []error
	for i, br := range batch {
		prog := sessJobs[i].Program
		meta := prog.Meta()
		suiteLabel := meta.Suite
		if suiteLabel == "" {
			suiteLabel = meta.Source
		}
		records = append(records, darco.NewRecord(prog.Name(), meta.Suite, *scale, cfg.Mode, br.Result, br.Err))
		if br.Err != nil {
			failures = append(failures, br.Err)
			continue
		}
		if *jsonOut {
			continue // the table is never printed on the JSON path
		}
		res := br.Result
		dyn := float64(res.GuestDyn())
		cyc := float64(res.Timing.Cycles)
		comp := func(c timing.Component) string {
			return fmt.Sprintf("%.1f", 100*res.Timing.ComponentCycles(c)/cyc)
		}
		t.AddRow(prog.Name(), suiteLabel,
			fmt.Sprint(res.GuestDyn()),
			fmt.Sprint(res.TOL.StaticTotal()),
			fmt.Sprintf("%.0f", res.DynamicStaticRatio()),
			fmt.Sprint(res.Timing.Cycles),
			fmt.Sprintf("%.2f", res.Timing.IPC()),
			fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()),
			comp(timing.CompIM), comp(timing.CompBBM), comp(timing.CompSBM),
			fmt.Sprintf("%.1f", 100*float64(res.TOL.DynSBM)/dyn),
			fmt.Sprint(res.TOL.SBCreated),
			fmt.Sprintf("%.1f", 1000*float64(res.TOL.IndirectDyn)/dyn),
			fmt.Sprint(res.TOL.Chains),
			fmt.Sprint(res.TOL.Transitions))
	}

	switch {
	case *jsonOut:
		if err := darco.EncodeRecords(os.Stdout, records); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *csv:
		fmt.Print(t.CSV())
	default:
		fmt.Print(t.String())
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d of %d benchmarks failed:\n", len(failures), len(sessJobs))
		for _, err := range failures {
			// Session errors already carry the benchmark name.
			fmt.Fprintf(os.Stderr, "  %v\n", err)
		}
		os.Exit(1)
	}
}
