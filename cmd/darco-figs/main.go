// Command darco-figs regenerates the paper's evaluation figures
// (Figures 5–11) as tables. Each figure's series are printed in the
// same units the paper plots.
//
// Usage:
//
//	darco-figs                  # all figures, full catalog
//	darco-figs -fig 6           # one figure
//	darco-figs -fig cc          # cache-pressure sweep (not part of "all")
//	darco-figs -fig phase       # phase-behaviour sweep (not part of "all")
//	darco-figs -fig phase -phases 6 -phase-cap 1024
//	darco-figs -fig sample      # sampled-vs-full error + speedup (not part of "all")
//	darco-figs -fig sample -sample 8 -interval 100000 -warmup 5000
//	darco-figs -scale 2 -csv
//	darco-figs -jobs 8          # parallel figure regeneration
//	darco-figs -from a.json,b.json  # reuse darco-suite -json results
//	darco-figs -fig 6 -workload trace:run.trace.json  # replayed workloads
//	darco-figs -server http://host:8080 -timeout 1h   # run on darco-serve
//	darco-figs -grid examples/grids/promotion-streambatch.json -csv
//	darco-figs -grid spec.json -store results/        # resumable sweep
//	darco-figs -grid spec.json -shard 0/4             # one shard of the cells
//
// -benchmarks and -workload both take workload Source-registry
// references ("<source>:<name>"; bare names mean the synthetic
// catalog); -workload appends to the -benchmarks selection.
//
// Simulation goes through a darco.Session worker pool (-jobs); the
// engine is deterministic, so the regenerated tables are identical for
// any worker count. -from preloads full results from JSON records
// emitted by cmd/darco or cmd/darco-suite -json, so figures can be
// reassembled without re-simulating the preloaded (benchmark, mode)
// pairs. -json emits the tables themselves as JSON.
//
// -grid replaces the built-in figures with a declarative
// characterization grid (internal/sweep): a JSON spec naming workloads
// and knob axes; every cell simulates through the same session and the
// report lands on stdout as a table, CSV (-csv) or JSON (-json).
// -store attaches a content-addressed result store — completed cells
// persist, so an interrupted sweep resumes where it stopped — and
// -shard i/n runs one deterministic 1/n slice of the cells, so a grid
// can be split across machines sharing a store.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/darco"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5a, 5b, 6, 7, 7b, 8, 9, 10, 11, cc, phase, sample, all ('all' excludes the cc, phase and sample sweeps)")
	scale := flag.Float64("scale", 1.0, "workload dynamic-size multiplier")
	csv := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit the tables as JSON")
	var knobs darco.Knobs
	knobs.RegisterFlags(flag.CommandLine)
	flag.Lookup("sample").Usage += "; with -fig sample, overrides the sweep's default plan"
	quiet := flag.Bool("q", false, "suppress progress output")
	benches := flag.String("benchmarks", "", "comma-separated subset of benchmarks (workload references)")
	workloadFlag := flag.String("workload", "", "comma-separated workload references (<source>:<name>) appended to -benchmarks")
	phases := flag.Int("phases", 0, "largest composite of the -fig phase sweep (0 = default)")
	phaseCap := flag.Int("phase-cap", 0, "bounded code-cache capacity of the -fig phase sweep in instruction slots (0 = default)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	from := flag.String("from", "", "comma-separated JSON record files (darco/darco-suite -json output) to reuse instead of simulating")
	timeout := flag.Duration("timeout", 0, "overall deadline for the whole regeneration (0 = none)")
	server := flag.String("server", "", "run on a darco-serve instance at this base URL instead of simulating locally")
	gridSpec := flag.String("grid", "", "run a declarative characterization grid from this JSON spec (see examples/grids) instead of the built-in figures")
	storeDir := flag.String("store", "", "content-addressed result store directory; completed work persists there and re-runs resume from it")
	shard := flag.String("shard", "", "with -grid, run only this deterministic slice of the cells, as i/n (e.g. 0/4)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.Config = darco.DefaultConfig()
	if err := knobs.Apply(&opts.Config); err != nil {
		fmt.Fprintln(os.Stderr, "darco-figs:", err)
		os.Exit(2)
	}
	if *fig == "cc" && opts.Config.TOL.Cache != darco.DefaultConfig().TOL.Cache {
		// The sweep sets its own capacity × policy matrix per point; a
		// base-config bound would be silently overwritten. Use cmd/darco
		// or cmd/darco-suite for a single bounded configuration.
		fmt.Fprintln(os.Stderr, "darco-figs: -fig cc sweeps its own capacities and policies; -cc-size/-cc-policy apply to the other figures only")
		os.Exit(2)
	}
	if err := opts.Config.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "darco-figs:", err)
		os.Exit(2)
	}
	samplePlan := opts.Config.Sampling
	if *fig == "sample" {
		// The sweep compares sampled against full runs itself; the base
		// config must stay full-detail so the reference leg is one.
		opts.Config.Sampling = nil
	}
	opts.Jobs = *jobs
	opts.Context = ctx
	if *server != "" {
		opts.SessionOptions = append(opts.SessionOptions, darco.WithRemote(serve.NewClient(*server)))
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-figs:", err)
			os.Exit(2)
		}
		opts.SessionOptions = append(opts.SessionOptions, darco.WithStore(st))
	}
	if *gridSpec != "" {
		if err := runGrid(ctx, *gridSpec, *shard, &opts, *csv, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "darco-figs:", err)
			os.Exit(1)
		}
		return
	}
	if *shard != "" {
		fmt.Fprintln(os.Stderr, "darco-figs: -shard only applies to -grid sweeps")
		os.Exit(2)
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	if *workloadFlag != "" {
		opts.Benchmarks = append(opts.Benchmarks, strings.Split(*workloadFlag, ",")...)
	}
	for i, ref := range opts.Benchmarks {
		opts.Benchmarks[i] = workload.RefForISA(strings.TrimSpace(ref), opts.Config.ISA)
	}
	if *from != "" {
		for _, path := range strings.Split(*from, ",") {
			recs, err := loadRecords(strings.TrimSpace(path))
			if err != nil {
				fmt.Fprintln(os.Stderr, "darco-figs:", err)
				os.Exit(2)
			}
			opts.Preload = append(opts.Preload, recs...)
		}
	}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var jsonTables []*stats.Table
	emit := func(t *stats.Table) {
		switch {
		case *jsonOut:
			jsonTables = append(jsonTables, t)
		case *csv:
			fmt.Print(t.CSV())
			fmt.Println()
		default:
			fmt.Print(t.String())
			fmt.Println()
		}
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("5a") || want("5b") || want("5") {
		ta, tb, err := r.Fig5()
		if err != nil {
			die(err)
		}
		if want("5a") || want("5") {
			emit(ta)
		}
		if want("5b") || want("5") {
			emit(tb)
		}
	}
	if want("6") {
		t, err := r.Fig6()
		if err != nil {
			die(err)
		}
		emit(t)
	}
	if want("7") {
		t, err := r.Fig7()
		if err != nil {
			die(err)
		}
		emit(t)
	}
	if want("7b") {
		t, err := r.Fig7b()
		if err != nil {
			die(err)
		}
		emit(t)
	}
	if want("8") {
		t, err := r.Fig8()
		if err != nil {
			die(err)
		}
		emit(t)
	}
	if want("9") {
		t, err := r.Fig9()
		if err != nil {
			die(err)
		}
		emit(t)
	}
	if want("10") {
		t, err := r.Fig10()
		if err != nil {
			die(err)
		}
		emit(t)
	}
	if want("11") {
		ta, tb, err := r.Fig11()
		if err != nil {
			die(err)
		}
		emit(ta)
		emit(tb)
	}
	// The cache-pressure sweep runs 1 + 3×len(capacities) simulations
	// per benchmark, so it is opt-in and not part of "all"; restrict it
	// with -benchmarks for quick sweeps.
	if *fig == "cc" {
		t, err := r.FigCC(nil)
		if err != nil {
			die(err)
		}
		emit(t)
	}
	// The phase sweep simulates composites of growing length, so it is
	// opt-in too; -benchmarks restricts the member pool.
	if *fig == "phase" {
		t, err := r.FigPhase(*phases, *phaseCap)
		if err != nil {
			die(err)
		}
		emit(t)
	}
	// The sampling sweep runs every benchmark twice (full + sampled) and
	// times both legs, so it is opt-in as well; -sample/-interval/-warmup
	// override its default plan.
	if *fig == "sample" {
		t, err := r.FigSample(samplePlan)
		if err != nil {
			die(err)
		}
		emit(t)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonTables); err != nil {
			die(err)
		}
	}
}

// runGrid executes one declarative sweep spec on the flag-built base
// configuration and session (store, remote, worker count) and emits
// its report in the format the figure path would use. Per-cell
// failures are recorded in the report and returned after it prints, so
// a partially failed sweep still shows everything that ran.
func runGrid(ctx context.Context, path, shard string, opts *experiments.Options, csv, jsonOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	g, err := sweep.DecodeGrid(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if g.Scale == 0 {
		g.Scale = opts.Scale
	}
	sopts := sweep.Options{
		Config:  &opts.Config,
		Jobs:    opts.Jobs,
		Session: opts.SessionOptions,
		Log:     opts.Log,
	}
	if shard != "" {
		if _, err := fmt.Sscanf(shard, "%d/%d", &sopts.Shard, &sopts.Shards); err != nil {
			return fmt.Errorf("bad -shard %q (want i/n, e.g. 0/4): %v", shard, err)
		}
	}
	rs, runErr := sweep.Run(ctx, g, sopts)
	if rs != nil {
		switch {
		case jsonOut:
			if err := rs.WriteJSON(os.Stdout); err != nil {
				return err
			}
		case csv:
			fmt.Print(rs.CSV())
		default:
			fmt.Print(rs.Table().String())
		}
	}
	return runErr
}

// loadRecords reads one []darco.Record file produced by cmd/darco or
// cmd/darco-suite -json. Records without a full result (summaries only
// or failures) are dropped by the experiments preloader.
func loadRecords(path string) ([]darco.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := darco.DecodeRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
