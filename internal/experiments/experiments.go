// Package experiments regenerates every figure of the paper's
// evaluation (Figures 5–11) from the simulation infrastructure: each
// FigN function produces the table of series the corresponding figure
// plots. Table I is the timing configuration itself
// (timing.DefaultConfig) and is printed by cmd/darco -print-config.
//
// Every figure is a grid spec executed by the internal/sweep
// characterization-grid engine on the runner's one darco.Session.
// Figures 5–11 share one grid shape: the session workloads × a timing
// mode axis (shared, tol-only, split), each figure requesting only the
// modes it reads. A small description per table — title, columns, row
// set, and a cell function over one workload's runs — renders the
// figure from the grid's long-form result set. The sweeping figures
// (FigCC, FigPhase, FigSample) declare their own knob axes.
//
// Every cell's job is built by the one cell→Job mapper (sweep.JobFor),
// so identical runs share one memo key across figures, preloads, and
// persistent stores, and a run several figures read simulates once.
// Cells run concurrently across Options.Jobs workers and tables are
// assembled in catalog order; the engine is deterministic, so the
// regenerated tables are identical for any worker count.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// Options configures a figure-regeneration session.
type Options struct {
	// Scale multiplies the dynamic size of every workload (1.0 =
	// DESIGN.md default budgets). Every selected program must be
	// scalable when Scale != 1 (trace replays are fixed images).
	Scale float64
	// Benchmarks restricts the set (nil = Config.ISA's full catalog:
	// 48 benchmarks, or the RV32I starter catalog under "rv32").
	// Entries are workload references resolved through the Source
	// registry ("<source>:<name>"); bare names select the synthetic
	// catalog, so plain benchmark names keep working.
	Benchmarks []string
	// Config is the base DARCO configuration.
	Config darco.Config
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Jobs is the session worker-pool size (0 = GOMAXPROCS). The
	// regenerated tables are identical for any value.
	Jobs int
	// Context cancels in-flight simulations (nil = Background).
	Context context.Context
	// Preload seeds the session with previously computed full results
	// (e.g. cmd/darco-suite -json output). Records carry no config: each
	// serves exactly its benchmark's figure cell at its mode under
	// Config, and only for synthetic-catalog programs.
	Preload []darco.Record
	// SessionOptions are appended to the runner's session construction
	// — the hook commands use to install a persistent result store
	// (darco.WithStore) or a remote executor (darco.WithRemote with a
	// serve.Client), so figure regeneration can reuse stored results or
	// run on a darco-serve instance.
	SessionOptions []darco.SessionOption
}

// DefaultOptions returns the standard full-catalog session.
func DefaultOptions() Options {
	return Options{Scale: 1.0, Config: darco.DefaultConfig()}
}

// Runner regenerates figures through a shared darco.Session, so runs
// needed by several figures (or both legs of the interaction pair)
// simulate exactly once.
type Runner struct {
	opts  Options
	progs []workload.Program
	refs  []string // Source-registry reference of each program, the figure grids' workloads
	sess  *darco.Session
}

// NewRunner builds a runner over the selected workload programs.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	refs := opts.Benchmarks
	if refs == nil {
		catalog := workload.Catalog()
		if opts.Config.ISA == "rv32" {
			catalog = workload.RV32Catalog()
		}
		for _, s := range catalog {
			refs = append(refs, workload.RefForISA(workload.DefaultSource+":"+s.Name, opts.Config.ISA))
		}
	}
	var progs []workload.Program
	for _, ref := range refs {
		p, err := workload.Open(ref)
		if err != nil {
			return nil, err
		}
		if p, err = workload.ScaleProgram(p, opts.Scale); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		progs = append(progs, p)
	}
	// Every figure row set is keyed by program name, so a selection
	// where two programs share a name — a catalog benchmark plus a trace
	// recorded from it, say — would silently show one program's results
	// on both rows. Reject it.
	byName := map[string]int{}
	for i, p := range progs {
		if _, dup := byName[p.Name()]; dup {
			return nil, fmt.Errorf("experiments: two selected workloads are named %q; figures key rows by name, so one of them must be renamed or dropped", p.Name())
		}
		byName[p.Name()] = i
	}
	sessOpts := []darco.SessionOption{darco.WithWorkers(opts.Jobs)}
	sessOpts = append(sessOpts, opts.SessionOptions...)
	if opts.Log != nil {
		log := opts.Log
		sessOpts = append(sessOpts, darco.WithEvents(func(ev darco.Event) {
			if ev.Kind == darco.EventStarted {
				fmt.Fprintf(log, "run %-22s %s\n", ev.Job, ev.Mode)
			}
		}))
	}
	sess := darco.NewSession(sessOpts...)
	// A record is filed under the key the figure grid computes for its
	// benchmark at its mode (the same sweep.JobFor call), so a cell whose
	// configuration deviates — a bounded cache leg — misses.
	for _, rec := range opts.Preload {
		if rec.Result == nil {
			continue
		}
		i, ok := byName[rec.Benchmark]
		if !ok || progs[i].Meta().Source != workload.DefaultSource {
			continue
		}
		if rec.Scale != 0 && rec.Scale != opts.Scale {
			return nil, fmt.Errorf("experiments: preload record %q was produced at -scale %g, session runs at -scale %g",
				rec.Benchmark, rec.Scale, opts.Scale)
		}
		j, err := sweep.JobFor(progs[i], refs[i], opts.Scale, opts.Config, &darco.Knobs{Mode: rec.Mode})
		if err != nil {
			return nil, fmt.Errorf("experiments: preload record %q: %w", rec.Benchmark, err)
		}
		key, err := j.Key()
		if err != nil {
			return nil, fmt.Errorf("experiments: preload record %q: %w", rec.Benchmark, err)
		}
		sess.Preload(key, rec.Result)
	}
	return &Runner{opts: opts, progs: progs, refs: refs, sess: sess}, nil
}

// Programs returns the workload set of this runner.
func (r *Runner) Programs() []workload.Program {
	return append([]workload.Program(nil), r.progs...)
}

// runGrid executes a figure's grid spec on the runner's shared session
// under the runner's base configuration, so the cells of every figure
// memoize into one another.
func (r *Runner) runGrid(g *sweep.Grid) (*sweep.ResultSet, error) {
	base := r.opts.Config
	return sweep.RunOn(r.opts.Context, r.sess, g, sweep.Options{Config: &base})
}

// runModes runs the grid behind Figures 5–11 — every session workload
// × a "mode" axis holding the requested timing modes — and returns each
// workload's rows, one per mode in request order, in catalog order. A
// failing cell reports the first error in that order, modes inner.
func (r *Runner) runModes(modes ...timing.Mode) ([][]sweep.Row, error) {
	vals := make([]sweep.Value, len(modes))
	for i, m := range modes {
		vals[i] = sweep.Value{Name: m.String(), Knobs: darco.Knobs{Mode: m.String()}}
	}
	rs, err := r.runGrid(&sweep.Grid{
		Name:      "figures",
		Workloads: r.refs,
		Scale:     r.opts.Scale,
		Axes:      []sweep.Axis{{Name: "mode", Values: vals}},
	})
	if err != nil {
		return nil, err
	}
	// Cells enumerate workloads outermost, so each workload's modes are
	// adjacent rows.
	var out [][]sweep.Row
	for i := 0; i < len(rs.Rows); i += len(modes) {
		out = append(out, rs.Rows[i:i+len(modes)])
	}
	return out, nil
}

// figure describes one table of Figures 5–11 over the mode grid.
type figure struct {
	title string
	cols  []string // headers: the row label (and suite), then the values
	prec  int      // decimals of the float cells
	modes []timing.Mode
	// outliers selects the row set of Figures 9–11: the session's
	// workload.Outliers under a "case" label with no suite column.
	// Otherwise every workload is a row, under "benchmark" and "suite".
	outliers bool
	// avg appends one "AVG <suite>" row per paper suite present, in
	// workload.Suites order.
	avg bool
	// values maps one workload's rows (in modes order) to the
	// quantities an AVG row averages.
	values func(rows []sweep.Row) []float64
	// extra derives the cells after the values from them and the grid
	// rows (nil on AVG rows).
	extra func(v []float64, rows []sweep.Row) []any
}

// render assembles the figure's table from the mode grid's runs.
func (f figure) render(ws [][]sweep.Row) *stats.Table {
	t := stats.NewTable(f.title, f.cols...)
	add := func(label, suite string, v []float64, rows []sweep.Row) {
		row := []any{label}
		if !f.outliers {
			row = append(row, suite)
		}
		for _, x := range v {
			row = append(row, x)
		}
		if f.extra != nil {
			row = append(row, f.extra(v, rows)...)
		}
		t.AddRowf(f.prec, row...)
	}
	shown := ws
	if f.outliers {
		shown = nil
		for _, name := range workload.Outliers() {
			for _, w := range ws {
				if w[0].Name == name {
					shown = append(shown, w)
				}
			}
		}
	}
	for _, w := range shown {
		add(w[0].Name, w[0].Suite, f.values(w), w)
	}
	if !f.avg {
		return t
	}
	// An AVG row sums its suite's values in catalog order, then divides.
	for _, s := range workload.Suites() {
		var sum []float64
		n := 0
		for _, w := range ws {
			if w[0].Suite != s.String() {
				continue
			}
			v := f.values(w)
			if sum == nil {
				sum = make([]float64, len(v))
			}
			for i, x := range v {
				sum[i] += x
			}
			n++
		}
		if n == 0 {
			continue
		}
		for i := range sum {
			sum[i] /= float64(n)
		}
		add("AVG "+s.String(), s.String(), sum, nil)
	}
	return t
}

// table runs the modes f reads and renders it.
func (r *Runner) table(f figure) (*stats.Table, error) {
	ws, err := r.runModes(f.modes...)
	if err != nil {
		return nil, err
	}
	return f.render(ws), nil
}

// tables renders the two halves of a figure from one mode grid.
func (r *Runner) tables(a, b figure) (*stats.Table, *stats.Table, error) {
	ws, err := r.runModes(a.modes...)
	if err != nil {
		return nil, nil, err
	}
	return a.render(ws), b.render(ws), nil
}

var (
	sharedMode      = []timing.Mode{timing.ModeShared}
	interactionPair = []timing.Mode{timing.ModeShared, timing.ModeSplit}
)

// pair wraps a workload's shared and split runs, so the interaction
// formulas of darco.InteractionResult stay their only copy.
func pair(rows []sweep.Row) *darco.InteractionResult {
	return &darco.InteractionResult{Shared: rows[0].Result, Split: rows[1].Result}
}

func pct(x int, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(x) / total
}

var fig5a = figure{
	title: "Figure 5a: static guest code distribution (%)",
	cols:  []string{"benchmark", "suite", "IM", "BBM", "SBM"},
	prec:  1,
	modes: sharedMode,
	avg:   true,
	values: func(rows []sweep.Row) []float64 {
		im, bbm, sbm := rows[0].Result.TOL.StaticCounts()
		st := float64(im + bbm + sbm)
		return []float64{pct(im, st), pct(bbm, st), pct(sbm, st)}
	},
}

var fig5b = figure{
	title: "Figure 5b: dynamic guest code distribution (%)",
	cols:  []string{"benchmark", "suite", "IM", "BBM", "SBM"},
	prec:  1,
	modes: sharedMode,
	avg:   true,
	values: func(rows []sweep.Row) []float64 {
		s := &rows[0].Result.TOL
		dyn := float64(s.DynTotal())
		return []float64{100 * float64(s.DynIM) / dyn, 100 * float64(s.DynBBM) / dyn, 100 * float64(s.DynSBM) / dyn}
	},
}

var fig6 = figure{
	title: "Figure 6: execution time breakdown (% of cycles) + log-scale series",
	cols:  []string{"benchmark", "suite", "overhead", "application", "dyn/static", "SBM-invocations"},
	prec:  1,
	modes: sharedMode,
	avg:   true,
	values: func(rows []sweep.Row) []float64 {
		return []float64{rows[0].Result.Timing.TOLShare() * 100}
	},
	// An AVG row's application share is 100 minus the mean overhead,
	// and its log-scale series are blank.
	extra: func(v []float64, rows []sweep.Row) []any {
		ratio, sbm := "", ""
		if rows != nil {
			ratio = fmt.Sprintf("%.0f", rows[0].Result.DynamicStaticRatio())
			sbm = fmt.Sprint(rows[0].Result.TOL.SBCreated)
		}
		return []any{100 - v[0], ratio, sbm}
	},
}

var fig7 = figure{
	title: "Figure 7: TOL time by component (% of cycles) + indirect branches",
	cols: []string{"benchmark", "suite", "tol-other", "IM", "BBM", "SBM",
		"chaining", "code$-lookup", "indirect-branches"},
	prec:  2,
	modes: sharedMode,
	values: func(rows []sweep.Row) []float64 {
		tr := rows[0].Result.Timing
		cyc := float64(tr.Cycles)
		var v []float64
		for _, c := range []timing.Component{timing.CompTOLOther, timing.CompIM, timing.CompBBM,
			timing.CompSBM, timing.CompChaining, timing.CompCodeCacheLookup} {
			v = append(v, 100*tr.ComponentCycles(c)/cyc)
		}
		return v
	},
	extra: func(_ []float64, rows []sweep.Row) []any {
		return []any{fmt.Sprint(rows[0].Result.TOL.IndirectDyn)}
	},
}

var fig8 = figure{
	title: "Figure 8: TOL performance characteristics (TOL executed in isolation)",
	cols:  []string{"benchmark", "suite", "IPC", "D$-miss%", "I$-miss%", "BP-miss%"},
	prec:  2,
	modes: []timing.Mode{timing.ModeTOLOnly},
	values: func(rows []sweep.Row) []float64 {
		tr := rows[0].Result.Timing
		return []float64{tr.IPC(),
			100 * tr.L1D.OwnerMissRate(timing.OwnerTOL),
			100 * tr.L1I.OwnerMissRate(timing.OwnerTOL),
			100 * tr.Branch.OwnerMispredictRate(timing.OwnerTOL)}
	},
}

var fig9 = figure{
	title: "Figure 9: cycle breakdown (% of cycles), TOL vs application",
	cols: []string{"case", "app-insts", "tol-insts", "app-sched", "tol-sched",
		"app-branch", "tol-branch", "app-i$", "tol-i$", "app-d$", "tol-d$"},
	prec:     1,
	modes:    sharedMode,
	outliers: true,
	avg:      true,
	values: func(rows []sweep.Row) []float64 {
		tr := rows[0].Result.Timing
		cyc := float64(tr.Cycles)
		v := []float64{100 * tr.InstCycles[timing.OwnerApp] / cyc, 100 * tr.InstCycles[timing.OwnerTOL] / cyc}
		for _, k := range []timing.BubbleKind{timing.BubbleSched, timing.BubbleBranch, timing.BubbleIMiss, timing.BubbleDMiss} {
			v = append(v, 100*tr.Bubbles[timing.OwnerApp][k]/cyc, 100*tr.Bubbles[timing.OwnerTOL][k]/cyc)
		}
		return v
	},
}

var fig10 = figure{
	title:    "Figure 10: slowdown from TOL/application interaction (w/ vs w/o shared resources)",
	cols:     []string{"case", "application", "TOL"},
	prec:     3,
	modes:    interactionPair,
	outliers: true,
	avg:      true,
	values: func(rows []sweep.Row) []float64 {
		ir := pair(rows)
		return []float64{ir.AppSlowdown(), ir.TOLSlowdown()}
	},
}

// fig11 is one entity's half of Figure 11.
func fig11(title string, o timing.Owner) figure {
	return figure{
		title:    title,
		cols:     []string{"case", "d$-miss", "i$-miss", "sched", "branch"},
		prec:     2,
		modes:    interactionPair,
		outliers: true,
		avg:      true,
		values: func(rows []sweep.Row) []float64 {
			ir := pair(rows)
			return []float64{100 * ir.Potential(o, timing.BubbleDMiss), 100 * ir.Potential(o, timing.BubbleIMiss),
				100 * ir.Potential(o, timing.BubbleSched), 100 * ir.Potential(o, timing.BubbleBranch)}
		},
	}
}

// Fig5 regenerates Figure 5: the static (a) and dynamic (b)
// distribution of guest code across IM, BBM and SBM.
func (r *Runner) Fig5() (*stats.Table, *stats.Table, error) { return r.tables(fig5a, fig5b) }

// Fig6 regenerates Figure 6: execution-time breakdown into TOL
// overhead and application, with the dynamic/static instruction ratio
// and the number of SBM invocations (the log-scale series).
func (r *Runner) Fig6() (*stats.Table, error) { return r.table(fig6) }

// Fig7 regenerates Figure 7: the TOL execution time split into its
// components (as % of total execution time), plus the dynamic guest
// indirect-branch count (the log-scale series).
func (r *Runner) Fig7() (*stats.Table, error) { return r.table(fig7) }

// Fig7b regenerates the pass-level refinement of Figure 7 enabled by
// the pluggable pipeline: the SBM component time split per
// optimization pass, plus the non-pass remainder (trace construction,
// emission, bookkeeping) as "sbm-other", all as % of total cycles.
// Each pass's share is its fraction of the modeled SBM instruction
// stream applied to the SBM component cycles, so the columns sum to
// the aggregate SBM time of Figure 7. The final column is the total
// number of guest instructions the passes eliminated.
func (r *Runner) Fig7b() (*stats.Table, error) {
	ws, err := r.runModes(sharedMode...)
	if err != nil {
		return nil, err
	}
	// Derive the pass columns from the results themselves (union across
	// benchmarks, first-appearance order), so preloaded records from a
	// differently configured run (-from with other -O/-passes flags)
	// keep every pass share they actually carry. Fall back to the
	// session pipeline when no run created superblocks.
	var names []string
	for _, w := range ws {
		for _, ps := range w[0].Result.TOL.SBPasses {
			if !slices.Contains(names, ps.Pass) {
				names = append(names, ps.Pass)
			}
		}
	}
	if names == nil {
		if names, err = r.opts.Config.TOL.PipelineNames(); err != nil {
			return nil, err
		}
	}
	// pass returns the first stat of the named pass (zero if absent).
	pass := func(res *darco.Result, name string) tol.PassStat {
		for _, ps := range res.TOL.SBPasses {
			if ps.Pass == name {
				return ps
			}
		}
		return tol.PassStat{}
	}
	f := figure{
		title: "Figure 7b: SBM time by optimization pass (% of cycles)",
		cols:  append(append([]string{"benchmark", "suite"}, names...), "sbm-other", "eliminated"),
		prec:  3,
		values: func(rows []sweep.Row) []float64 {
			res := rows[0].Result
			cyc := float64(res.Timing.Cycles)
			sbmCyc := res.Timing.ComponentCycles(timing.CompSBM)
			total := float64(res.TOL.SBMInstTotal())
			share := func(insts uint64) float64 {
				if total == 0 || cyc == 0 {
					return 0
				}
				return 100 * sbmCyc * (float64(insts) / total) / cyc
			}
			v := make([]float64, 0, len(names)+1)
			for _, n := range names {
				v = append(v, share(pass(res, n).CostInsts))
			}
			return append(v, share(res.TOL.SBOtherInsts))
		},
		extra: func(_ []float64, rows []sweep.Row) []any {
			var eliminated uint64
			for _, n := range names {
				eliminated += pass(rows[0].Result, n).Eliminated
			}
			return []any{fmt.Sprint(eliminated)}
		},
	}
	return f.render(ws), nil
}

// Fig8 regenerates Figure 8: TOL performance characteristics in
// isolation — IPC, data/instruction cache miss rates, and branch
// misprediction rate.
func (r *Runner) Fig8() (*stats.Table, error) { return r.table(fig8) }

// Fig9 regenerates Figure 9: cycles split into instruction cycles and
// the four bubble sources, each divided between TOL and the
// application, for the outliers and suite averages.
func (r *Runner) Fig9() (*stats.Table, error) { return r.table(fig9) }

// Fig10 regenerates Figure 10: relative per-entity execution time with
// resource interaction versus without.
func (r *Runner) Fig10() (*stats.Table, error) { return r.table(fig10) }

// Fig11 regenerates Figure 11: the potential per-resource improvement
// for TOL (a) and the application (b) if the interaction were
// eliminated.
func (r *Runner) Fig11() (*stats.Table, *stats.Table, error) {
	return r.tables(fig11("Figure 11a: potential improvement of TOL (% of cycles)", timing.OwnerTOL),
		fig11("Figure 11b: potential improvement of the application (% of cycles)", timing.OwnerApp))
}

// DefaultCCCapacities is the capacity sweep of FigCC, in instruction
// slots. 0 is the unbounded baseline; the bounded points shrink
// geometrically into the range where the catalog benchmarks' code
// footprints (roughly 600–6500 instruction slots at scale 1) no
// longer fit, so every policy is exercised under real pressure.
var DefaultCCCapacities = []int{0, 4096, 2048, 1024, 512, 256}

// ccGrid builds the cache-pressure sweep as a grid spec: a policy
// axis (the unbounded baseline plus every registered eviction policy)
// crossed with a cc-size axis ("inf" plus the bounded capacities in
// descending order), with the meaningless combinations — unbounded ×
// bounded size, real policy × inf — skipped, and the baseline cell
// declared for derived metrics. A preloaded record can only serve the
// baseline cells: the bounded cells' memo keys cover their bound.
func (r *Runner) ccGrid(caps []int, policies []string) *sweep.Grid {
	zero := 0
	polVals := []sweep.Value{{Name: "unbounded"}}
	for _, pol := range policies {
		polVals = append(polVals, sweep.Value{Name: pol, Knobs: darco.Knobs{CCPolicy: pol}})
	}
	sizeVals := []sweep.Value{{Name: "inf", Knobs: darco.Knobs{CCSize: &zero}}}
	var capNames []string
	for i := range caps {
		c := caps[i]
		sizeVals = append(sizeVals, sweep.Value{Name: fmt.Sprint(c), Knobs: darco.Knobs{CCSize: &c}})
		capNames = append(capNames, fmt.Sprint(c))
	}
	g := &sweep.Grid{
		Name:      "fig-cc",
		Workloads: r.refs,
		Scale:     r.opts.Scale,
		Base:      &darco.Knobs{Mode: timing.ModeShared.String()},
		Axes: []sweep.Axis{
			{Name: "policy", Values: polVals},
			{Name: "cc-size", Values: sizeVals},
		},
		Baseline: map[string]string{"policy": "unbounded", "cc-size": "inf"},
	}
	if len(capNames) > 0 {
		g.Skip = append(g.Skip, sweep.Constraint{"policy": {"unbounded"}, "cc-size": capNames})
	}
	if len(policies) > 0 {
		g.Skip = append(g.Skip, sweep.Constraint{"policy": policies, "cc-size": {"inf"}})
	}
	return g
}

// FigCC runs the cache-pressure characterization enabled by the
// bounded code cache: every benchmark is swept over the given
// capacities (nil = DefaultCCCapacities) under every registered
// eviction policy, and the table reports cycles, the slowdown against
// the unbounded baseline, and the eviction/retranslation activity at
// each point. Rows are grouped per benchmark — the baseline first,
// then each policy with capacities in descending (monotone) order —
// so the capacity axis of the figure reads directly down the table.
func (r *Runner) FigCC(capacities []int) (*stats.Table, error) {
	if capacities == nil {
		capacities = DefaultCCCapacities
	}
	// The unbounded baseline (capacity 0) always runs — the slowdown
	// column needs its reference point; bounded capacities are swept in
	// descending order, deduplicated (they name axis values).
	var caps []int
	for _, c := range capacities {
		if c > 0 {
			caps = append(caps, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(caps)))
	caps = slices.Compact(caps)
	policies := tol.RegisteredEvictionPolicies()

	rs, err := r.runGrid(r.ccGrid(caps, policies))
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Figure CC: code cache pressure sweep (cycles and retranslation rate vs. capacity)",
		"benchmark", "policy", "cc-size", "cycles", "slowdown",
		"evictions", "flushes", "retrans", "retrans/Kdyn", "cc-peak", "tol%")
	var base *darco.Result
	for _, row := range rs.Rows {
		pol, size := row.Coords[0].Value, row.Coords[1].Value
		if pol == "unbounded" {
			base = row.Result // each workload's first cell
		}
		t.AddRow(append([]string{row.Name, pol, size}, pressureCells(row.Result, base)...)...)
	}
	return t, nil
}

// pressureCells renders the cache-pressure columns FigCC and FigPhase
// share for one run against its unbounded baseline: cycles, slowdown,
// evictions, flushes, retranslations, retranslations per thousand
// dynamic guest instructions, peak code-cache occupancy and TOL share.
func pressureCells(res, base *darco.Result) []string {
	slow := 1.0
	if base.Timing.Cycles > 0 {
		slow = float64(res.Timing.Cycles) / float64(base.Timing.Cycles)
	}
	dyn := float64(res.TOL.DynTotal())
	rate := 0.0
	if dyn > 0 {
		rate = 1000 * float64(res.TOL.Retranslations) / dyn
	}
	// Unbounded runs report no occupancy peak (the stat is a pressure
	// counter); their final occupancy is the peak.
	peak := res.TOL.CacheOccupancyPeak
	if peak == 0 {
		peak = res.CodeCacheInsts
	}
	return []string{
		fmt.Sprint(res.Timing.Cycles),
		fmt.Sprintf("%.3f", slow),
		fmt.Sprint(res.TOL.Evictions),
		fmt.Sprint(res.TOL.FlushCount),
		fmt.Sprint(res.TOL.Retranslations),
		fmt.Sprintf("%.2f", rate),
		fmt.Sprint(peak),
		fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()),
	}
}
