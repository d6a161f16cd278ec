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
// reassembled without re-simulating: each record serves the figure
// cell of its benchmark and mode under this command's configuration.
// -json emits the tables themselves as JSON.
//
// -grid replaces the built-in figures with a declarative
// characterization grid (internal/sweep): a JSON spec naming workloads
// and knob axes; every cell simulates through the same session and the
// report lands on stdout as a table, CSV (-csv) or JSON (-json). The
// spec names its own workloads and axes, so -grid refuses -fig, -from,
// -benchmarks, -workload, -phases and -phase-cap.
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
	"slices"
	"strings"

	"repro/internal/darco"
	"repro/internal/experiments"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5 (5a+5b), 5a, 5b, 6, 7, 7b, 8, 9, 10, 11, cc, phase, sample, all ('all' excludes the cc, phase and sample sweeps)")
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
	if *gridSpec != "" {
		if err := checkGridFlags(flag.CommandLine); err != nil {
			fmt.Fprintln(os.Stderr, "darco-figs:", err)
			os.Exit(2)
		}
	} else if *shard != "" {
		fmt.Fprintln(os.Stderr, "darco-figs: -shard only applies to -grid sweeps")
		os.Exit(2)
	}

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
	figs, err := selectFigures(*fig, figureTable(*phases, *phaseCap, samplePlan))
	if err != nil {
		fmt.Fprintln(os.Stderr, "darco-figs:", err)
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
	for _, f := range figs {
		tables, err := f.run(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range tables {
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
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonTables); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// figure is one -fig selection: its id and the tables it emits.
type figure struct {
	id  string
	all bool // part of -fig all
	run func(r *experiments.Runner) ([]*stats.Table, error)
}

// figureTable lists every -fig id in output order. "5" and "11" emit
// both halves of their figure; the cc, phase and sample sweeps
// simulate many configurations per benchmark, so they run only when
// named: cc runs 1 + 3×len(capacities) simulations per benchmark (use
// -benchmarks for quick sweeps), phase simulates composites of growing
// length (-benchmarks restricts the member pool), and sample runs every
// benchmark twice and times both legs (-sample/-interval/-warmup
// override its default plan).
func figureTable(phases, phaseCap int, samplePlan *sample.Config) []figure {
	one := func(fig func(r *experiments.Runner) (*stats.Table, error)) func(r *experiments.Runner) ([]*stats.Table, error) {
		return func(r *experiments.Runner) ([]*stats.Table, error) {
			t, err := fig(r)
			return []*stats.Table{t}, err
		}
	}
	pair := func(fig func(r *experiments.Runner) (*stats.Table, *stats.Table, error), keep ...int) func(r *experiments.Runner) ([]*stats.Table, error) {
		return func(r *experiments.Runner) ([]*stats.Table, error) {
			a, b, err := fig(r)
			both := []*stats.Table{a, b}
			var out []*stats.Table
			for _, i := range keep {
				out = append(out, both[i])
			}
			return out, err
		}
	}
	return []figure{
		{"5", true, pair((*experiments.Runner).Fig5, 0, 1)},
		{"5a", false, pair((*experiments.Runner).Fig5, 0)},
		{"5b", false, pair((*experiments.Runner).Fig5, 1)},
		{"6", true, one((*experiments.Runner).Fig6)},
		{"7", true, one((*experiments.Runner).Fig7)},
		{"7b", true, one((*experiments.Runner).Fig7b)},
		{"8", true, one((*experiments.Runner).Fig8)},
		{"9", true, one((*experiments.Runner).Fig9)},
		{"10", true, one((*experiments.Runner).Fig10)},
		{"11", true, pair((*experiments.Runner).Fig11, 0, 1)},
		{"cc", false, one(func(r *experiments.Runner) (*stats.Table, error) { return r.FigCC(nil) })},
		{"phase", false, one(func(r *experiments.Runner) (*stats.Table, error) { return r.FigPhase(phases, phaseCap) })},
		{"sample", false, one(func(r *experiments.Runner) (*stats.Table, error) { return r.FigSample(samplePlan) })},
	}
}

// selectFigures resolves a -fig value against the table: "all" selects
// the figures marked all, in table order; any other value must be an id.
func selectFigures(id string, table []figure) ([]figure, error) {
	var out []figure
	valid := []string{"all"}
	for _, f := range table {
		if id == f.id || id == "all" && f.all {
			out = append(out, f)
		}
		valid = append(valid, f.id)
	}
	if out == nil {
		return nil, fmt.Errorf("unknown -fig %q (valid: %s)", id, strings.Join(valid, ", "))
	}
	return out, nil
}

// checkGridFlags refuses every flag set on the command line that a
// -grid run would silently drop: the spec names its own workloads and
// axes, and the figure selection and its sweep parameters do not apply.
func checkGridFlags(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains([]string{"fig", "from", "benchmarks", "workload", "phases", "phase-cap"}, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if set != nil {
		return fmt.Errorf("%s cannot be combined with -grid (the spec names its own workloads and axes)", strings.Join(set, ", "))
	}
	return nil
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
