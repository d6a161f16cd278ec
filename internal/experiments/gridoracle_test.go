package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/darco"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// This file pins the grid refactor: the pre-refactor figure
// implementations (and their hand-rolled job builders) are kept here
// verbatim as oracles, and each grid-spec figure must regenerate a
// byte-identical table. The oracle job builders double as the memo-key
// compatibility reference — grid cells must produce the same
// darco.Job.Key as the hand-rolled jobs did, so persistent stores and
// cross-figure memoization written before the refactor keep working.
// The Figure 6–11 oracles keep the accessor glue they were written
// against (run, warm, forEach, fig9Rows, and the interaction pair as
// two session runs) as oracle helpers.

// oracleRef is the pre-refactor program-name → reference map lookup.
func (r *Runner) oracleRef(p workload.Program) string {
	return r.refs[slices.IndexFunc(r.progs, func(q workload.Program) bool { return q.Name() == p.Name() })]
}

// oracleJob is the pre-refactor Runner.job.
func (r *Runner) oracleJob(p workload.Program, mode timing.Mode) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = mode
	j := darco.JobForProgram(p, r.opts.Scale, cfg)
	j.Ref = r.oracleRef(p)
	return j
}

// oracleCCJob is the pre-refactor Runner.ccJob.
func (r *Runner) oracleCCJob(p workload.Program, capacity int, policy string) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = timing.ModeShared
	cfg.TOL.Cache = tol.CacheConfig{CapacityInsts: capacity, Policy: policy}
	j := darco.JobForProgram(p, r.opts.Scale, cfg)
	j.Ref = r.oracleRef(p)
	return j
}

// oraclePhaseJob is the pre-refactor Runner.phaseJob.
func (r *Runner) oraclePhaseJob(p workload.Program, capacity int, policy string) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = timing.ModeShared
	cfg.TOL.Cache = tol.CacheConfig{CapacityInsts: capacity, Policy: policy}
	j := darco.JobForProgram(p, r.opts.Scale, cfg)
	j.Ref = "phased:" + p.Name()
	return j
}

// oracleSampleJob is the pre-refactor Runner.sampleJob.
func (r *Runner) oracleSampleJob(p workload.Program, plan *sample.Config) darco.Job {
	cfg := r.opts.Config
	cfg.Mode = timing.ModeShared
	cfg.Sampling = nil
	if plan != nil {
		sc := *plan
		cfg.Sampling = &sc
	}
	j := darco.JobForProgram(p, r.opts.Scale, cfg)
	j.Ref = r.oracleRef(p)
	return j
}

func (r *Runner) oracleShared(p workload.Program) (*darco.Result, error) {
	return r.sess.Run(r.opts.Context, r.oracleJob(p, timing.ModeShared))
}

// oracleRun is the pre-refactor Runner.run.
func (r *Runner) oracleRun(name string, mode timing.Mode) (*darco.Result, error) {
	for _, p := range r.progs {
		if p.Name() == name {
			return r.sess.Run(r.opts.Context, r.oracleJob(p, mode))
		}
	}
	return nil, fmt.Errorf("experiments: benchmark %q not in session", name)
}

// oracleInteraction is the pre-refactor Runner.Interaction: the shared
// and split legs as two session runs.
func (r *Runner) oracleInteraction(name string) (*darco.InteractionResult, error) {
	shared, err := r.oracleRun(name, timing.ModeShared)
	if err != nil {
		return nil, err
	}
	split, err := r.oracleRun(name, timing.ModeSplit)
	if err != nil {
		return nil, err
	}
	return &darco.InteractionResult{Shared: shared, Split: split}, nil
}

// oracleWarm is the pre-refactor Runner.warm.
func (r *Runner) oracleWarm(modes ...timing.Mode) error {
	var jobs []darco.Job
	for _, p := range r.progs {
		for _, m := range modes {
			jobs = append(jobs, r.oracleJob(p, m))
		}
	}
	for _, br := range r.sess.RunBatch(r.opts.Context, jobs) {
		if br.Err != nil {
			return br.Err
		}
	}
	return nil
}

// oracleForEach is the pre-refactor Runner.forEach.
func (r *Runner) oracleForEach(fn func(p workload.Program) error) error {
	for _, p := range r.progs {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// oracleSuiteOrder is the pre-refactor suiteOrder.
func oracleSuiteOrder() []string {
	var out []string
	for _, s := range workload.Suites() {
		out = append(out, s.String())
	}
	return out
}

// oracleFig5 is the pre-refactor Fig5.
func (r *Runner) oracleFig5() (*stats.Table, *stats.Table, error) {
	ta := stats.NewTable("Figure 5a: static guest code distribution (%)",
		"benchmark", "suite", "IM", "BBM", "SBM")
	tb := stats.NewTable("Figure 5b: dynamic guest code distribution (%)",
		"benchmark", "suite", "IM", "BBM", "SBM")
	type acc struct {
		aIM, aBBM, aSBM, bIM, bBBM, bSBM float64
		n                                int
	}
	suiteAcc := map[string]*acc{}
	err := r.oracleForEach(func(p workload.Program) error {
		res, err := r.oracleShared(p)
		if err != nil {
			return err
		}
		suite := p.Meta().Suite
		im, bbm, sbm := res.TOL.StaticCounts()
		st := float64(im + bbm + sbm)
		dyn := float64(res.TOL.DynTotal())
		aIM, aBBM, aSBM := pct(im, st), pct(bbm, st), pct(sbm, st)
		bIM := 100 * float64(res.TOL.DynIM) / dyn
		bBBM := 100 * float64(res.TOL.DynBBM) / dyn
		bSBM := 100 * float64(res.TOL.DynSBM) / dyn
		ta.AddRowf(1, p.Name(), suite, aIM, aBBM, aSBM)
		tb.AddRowf(1, p.Name(), suite, bIM, bBBM, bSBM)
		a := suiteAcc[suite]
		if a == nil {
			a = &acc{}
			suiteAcc[suite] = a
		}
		a.aIM += aIM
		a.aBBM += aBBM
		a.aSBM += aSBM
		a.bIM += bIM
		a.bBBM += bBBM
		a.bSBM += bSBM
		a.n++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, su := range oracleSuiteOrder() {
		if a := suiteAcc[su]; a != nil && a.n > 0 {
			n := float64(a.n)
			ta.AddRowf(1, "AVG "+su, su, a.aIM/n, a.aBBM/n, a.aSBM/n)
			tb.AddRowf(1, "AVG "+su, su, a.bIM/n, a.bBBM/n, a.bSBM/n)
		}
	}
	return ta, tb, nil
}

// oracleFig6 is the pre-refactor Fig6.
func (r *Runner) oracleFig6() (*stats.Table, error) {
	if err := r.oracleWarm(timing.ModeShared); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 6: execution time breakdown (% of cycles) + log-scale series",
		"benchmark", "suite", "overhead", "application", "dyn/static", "SBM-invocations")
	type acc struct {
		ov float64
		n  int
	}
	suiteAcc := map[string]*acc{}
	err := r.oracleForEach(func(p workload.Program) error {
		res, err := r.oracleRun(p.Name(), timing.ModeShared)
		if err != nil {
			return err
		}
		suite := p.Meta().Suite
		ov := res.Timing.TOLShare() * 100
		t.AddRowf(1, p.Name(), suite, ov, 100-ov,
			fmt.Sprintf("%.0f", res.DynamicStaticRatio()),
			fmt.Sprint(res.TOL.SBCreated))
		a := suiteAcc[suite]
		if a == nil {
			a = &acc{}
			suiteAcc[suite] = a
		}
		a.ov += ov
		a.n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, su := range oracleSuiteOrder() {
		if a := suiteAcc[su]; a != nil && a.n > 0 {
			t.AddRowf(1, "AVG "+su, su, a.ov/float64(a.n),
				100-a.ov/float64(a.n), "", "")
		}
	}
	return t, nil
}

// oracleFig7 is the pre-refactor Fig7.
func (r *Runner) oracleFig7() (*stats.Table, error) {
	if err := r.oracleWarm(timing.ModeShared); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 7: TOL time by component (% of cycles) + indirect branches",
		"benchmark", "suite", "tol-other", "IM", "BBM", "SBM", "chaining", "code$-lookup", "indirect-branches")
	err := r.oracleForEach(func(p workload.Program) error {
		res, err := r.oracleRun(p.Name(), timing.ModeShared)
		if err != nil {
			return err
		}
		cyc := float64(res.Timing.Cycles)
		comp := func(c timing.Component) float64 {
			return 100 * res.Timing.ComponentCycles(c) / cyc
		}
		t.AddRowf(2, p.Name(), p.Meta().Suite,
			comp(timing.CompTOLOther), comp(timing.CompIM), comp(timing.CompBBM),
			comp(timing.CompSBM), comp(timing.CompChaining), comp(timing.CompCodeCacheLookup),
			fmt.Sprint(res.TOL.IndirectDyn))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// oracleFig7b is the pre-refactor Fig7b.
func (r *Runner) oracleFig7b() (*stats.Table, error) {
	if err := r.oracleWarm(timing.ModeShared); err != nil {
		return nil, err
	}
	// Derive the pass columns from the results themselves (union across
	// benchmarks, first-appearance order), so preloaded records from a
	// differently configured run (-from with other -O/-passes flags)
	// keep every pass share they actually carry. Fall back to the
	// session pipeline when no run created superblocks.
	var names []string
	seen := map[string]bool{}
	err := r.oracleForEach(func(p workload.Program) error {
		res, err := r.oracleRun(p.Name(), timing.ModeShared)
		if err != nil {
			return err
		}
		for _, ps := range res.TOL.SBPasses {
			if !seen[ps.Pass] {
				seen[ps.Pass] = true
				names = append(names, ps.Pass)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if names == nil {
		if names, err = r.opts.Config.TOL.PipelineNames(); err != nil {
			return nil, err
		}
	}
	cols := []string{"benchmark", "suite"}
	for _, n := range names {
		cols = append(cols, n)
	}
	cols = append(cols, "sbm-other", "eliminated")
	t := stats.NewTable("Figure 7b: SBM time by optimization pass (% of cycles)", cols...)
	err = r.oracleForEach(func(p workload.Program) error {
		res, err := r.oracleRun(p.Name(), timing.ModeShared)
		if err != nil {
			return err
		}
		cyc := float64(res.Timing.Cycles)
		sbmCyc := res.Timing.ComponentCycles(timing.CompSBM)
		total := float64(res.TOL.SBMInstTotal())
		share := func(insts uint64) float64 {
			if total == 0 || cyc == 0 {
				return 0
			}
			return 100 * sbmCyc * (float64(insts) / total) / cyc
		}
		row := []any{p.Name(), p.Meta().Suite}
		var eliminated uint64
		for _, n := range names {
			var insts uint64
			for _, ps := range res.TOL.SBPasses {
				if ps.Pass == n {
					insts, eliminated = ps.CostInsts, eliminated+ps.Eliminated
					break
				}
			}
			row = append(row, share(insts))
		}
		row = append(row, share(res.TOL.SBOtherInsts), fmt.Sprint(eliminated))
		t.AddRowf(3, row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// oracleFig8 is the pre-refactor Fig8.
func (r *Runner) oracleFig8() (*stats.Table, error) {
	if err := r.oracleWarm(timing.ModeTOLOnly); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8: TOL performance characteristics (TOL executed in isolation)",
		"benchmark", "suite", "IPC", "D$-miss%", "I$-miss%", "BP-miss%")
	err := r.oracleForEach(func(p workload.Program) error {
		res, err := r.oracleRun(p.Name(), timing.ModeTOLOnly)
		if err != nil {
			return err
		}
		tr := res.Timing
		t.AddRowf(2, p.Name(), p.Meta().Suite, tr.IPC(),
			100*tr.L1D.OwnerMissRate(timing.OwnerTOL),
			100*tr.L1I.OwnerMissRate(timing.OwnerTOL),
			100*tr.Branch.OwnerMispredictRate(timing.OwnerTOL))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// oracleFig9Rows is the pre-refactor fig9Rows.
func (r *Runner) oracleFig9Rows() []string {
	var rows []string
	have := map[string]bool{}
	for _, p := range r.progs {
		have[p.Name()] = true
	}
	for _, o := range workload.Outliers() {
		if have[o] {
			rows = append(rows, o)
		}
	}
	return rows
}

// oracleFig9 is the pre-refactor Fig9.
func (r *Runner) oracleFig9() (*stats.Table, error) {
	if err := r.oracleWarm(timing.ModeShared); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 9: cycle breakdown (% of cycles), TOL vs application",
		"case", "app-insts", "tol-insts", "app-sched", "tol-sched",
		"app-branch", "tol-branch", "app-i$", "tol-i$", "app-d$", "tol-d$")
	addRow := func(label string, rs []*darco.Result) {
		var v [10]float64
		for _, res := range rs {
			cyc := float64(res.Timing.Cycles)
			tr := res.Timing
			v[0] += 100 * tr.InstCycles[timing.OwnerApp] / cyc
			v[1] += 100 * tr.InstCycles[timing.OwnerTOL] / cyc
			v[2] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleSched] / cyc
			v[3] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleSched] / cyc
			v[4] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleBranch] / cyc
			v[5] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleBranch] / cyc
			v[6] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleIMiss] / cyc
			v[7] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleIMiss] / cyc
			v[8] += 100 * tr.Bubbles[timing.OwnerApp][timing.BubbleDMiss] / cyc
			v[9] += 100 * tr.Bubbles[timing.OwnerTOL][timing.BubbleDMiss] / cyc
		}
		n := float64(len(rs))
		t.AddRowf(1, label, v[0]/n, v[1]/n, v[2]/n, v[3]/n, v[4]/n,
			v[5]/n, v[6]/n, v[7]/n, v[8]/n, v[9]/n)
	}
	for _, name := range r.oracleFig9Rows() {
		res, err := r.oracleRun(name, timing.ModeShared)
		if err != nil {
			return nil, err
		}
		addRow(name, []*darco.Result{res})
	}
	for _, su := range oracleSuiteOrder() {
		var rs []*darco.Result
		for _, p := range r.progs {
			if p.Meta().Suite != su {
				continue
			}
			res, err := r.oracleRun(p.Name(), timing.ModeShared)
			if err != nil {
				return nil, err
			}
			rs = append(rs, res)
		}
		if len(rs) > 0 {
			addRow("AVG "+su, rs)
		}
	}
	return t, nil
}

// oracleFig10 is the pre-refactor Fig10.
func (r *Runner) oracleFig10() (*stats.Table, error) {
	if err := r.oracleWarm(timing.ModeShared, timing.ModeSplit); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10: slowdown from TOL/application interaction (w/ vs w/o shared resources)",
		"case", "application", "TOL")
	addRow := func(label string, irs []*darco.InteractionResult) {
		var app, tol float64
		for _, ir := range irs {
			app += ir.AppSlowdown()
			tol += ir.TOLSlowdown()
		}
		n := float64(len(irs))
		t.AddRowf(3, label, app/n, tol/n)
	}
	for _, name := range r.oracleFig9Rows() {
		ir, err := r.oracleInteraction(name)
		if err != nil {
			return nil, err
		}
		addRow(name, []*darco.InteractionResult{ir})
	}
	for _, su := range oracleSuiteOrder() {
		var irs []*darco.InteractionResult
		for _, p := range r.progs {
			if p.Meta().Suite != su {
				continue
			}
			ir, err := r.oracleInteraction(p.Name())
			if err != nil {
				return nil, err
			}
			irs = append(irs, ir)
		}
		if len(irs) > 0 {
			addRow("AVG "+su, irs)
		}
	}
	return t, nil
}

// oracleFig11 is the pre-refactor Fig11.
func (r *Runner) oracleFig11() (*stats.Table, *stats.Table, error) {
	if err := r.oracleWarm(timing.ModeShared, timing.ModeSplit); err != nil {
		return nil, nil, err
	}
	mk := func(title string) *stats.Table {
		return stats.NewTable(title, "case", "d$-miss", "i$-miss", "sched", "branch")
	}
	ta := mk("Figure 11a: potential improvement of TOL (% of cycles)")
	tb := mk("Figure 11b: potential improvement of the application (% of cycles)")
	addRow := func(t *stats.Table, label string, o timing.Owner, irs []*darco.InteractionResult) {
		var d, i, s, b float64
		for _, ir := range irs {
			d += 100 * ir.Potential(o, timing.BubbleDMiss)
			i += 100 * ir.Potential(o, timing.BubbleIMiss)
			s += 100 * ir.Potential(o, timing.BubbleSched)
			b += 100 * ir.Potential(o, timing.BubbleBranch)
		}
		n := float64(len(irs))
		t.AddRowf(2, label, d/n, i/n, s/n, b/n)
	}
	rowSets := make(map[string][]*darco.InteractionResult)
	var order []string
	for _, name := range r.oracleFig9Rows() {
		ir, err := r.oracleInteraction(name)
		if err != nil {
			return nil, nil, err
		}
		rowSets[name] = []*darco.InteractionResult{ir}
		order = append(order, name)
	}
	for _, su := range oracleSuiteOrder() {
		var irs []*darco.InteractionResult
		for _, p := range r.progs {
			if p.Meta().Suite != su {
				continue
			}
			ir, err := r.oracleInteraction(p.Name())
			if err != nil {
				return nil, nil, err
			}
			irs = append(irs, ir)
		}
		if len(irs) > 0 {
			label := "AVG " + su
			rowSets[label] = irs
			order = append(order, label)
		}
	}
	for _, label := range order {
		addRow(ta, label, timing.OwnerTOL, rowSets[label])
		addRow(tb, label, timing.OwnerApp, rowSets[label])
	}
	return ta, tb, nil
}

// oracleFigCC is the pre-refactor FigCC.
func (r *Runner) oracleFigCC(capacities []int) (*stats.Table, error) {
	if capacities == nil {
		capacities = DefaultCCCapacities
	}
	var caps []int
	for _, c := range capacities {
		if c > 0 {
			caps = append(caps, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(caps)))
	policies := tol.RegisteredEvictionPolicies()

	type point struct {
		bench    string
		policy   string
		capacity int
	}
	var jobs []darco.Job
	var points []point
	for _, p := range r.progs {
		jobs = append(jobs, r.oracleCCJob(p, 0, ""))
		points = append(points, point{p.Name(), "", 0})
		for _, pol := range policies {
			for _, c := range caps {
				jobs = append(jobs, r.oracleCCJob(p, c, pol))
				points = append(points, point{p.Name(), pol, c})
			}
		}
	}
	results := make(map[point]*darco.Result, len(jobs))
	for i, br := range r.sess.RunBatch(r.opts.Context, jobs) {
		if br.Err != nil {
			return nil, br.Err
		}
		results[points[i]] = br.Result
	}

	t := stats.NewTable("Figure CC: code cache pressure sweep (cycles and retranslation rate vs. capacity)",
		"benchmark", "policy", "cc-size", "cycles", "slowdown",
		"evictions", "flushes", "retrans", "retrans/Kdyn", "cc-peak", "tol%")
	for _, p := range r.progs {
		base := results[point{p.Name(), "", 0}]
		addRow := func(policy, size string, res *darco.Result) {
			slow := 1.0
			if base.Timing.Cycles > 0 {
				slow = float64(res.Timing.Cycles) / float64(base.Timing.Cycles)
			}
			dyn := float64(res.TOL.DynTotal())
			rate := 0.0
			if dyn > 0 {
				rate = 1000 * float64(res.TOL.Retranslations) / dyn
			}
			peak := res.TOL.CacheOccupancyPeak
			if peak == 0 {
				peak = res.CodeCacheInsts
			}
			t.AddRow(p.Name(), policy, size,
				fmt.Sprint(res.Timing.Cycles),
				fmt.Sprintf("%.3f", slow),
				fmt.Sprint(res.TOL.Evictions),
				fmt.Sprint(res.TOL.FlushCount),
				fmt.Sprint(res.TOL.Retranslations),
				fmt.Sprintf("%.2f", rate),
				fmt.Sprint(peak),
				fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()))
		}
		addRow("unbounded", "inf", base)
		for _, pol := range policies {
			for _, c := range caps {
				addRow(pol, fmt.Sprint(c), results[point{p.Name(), pol, c}])
			}
		}
	}
	return t, nil
}

// oracleFigPhase is the pre-refactor FigPhase.
func (r *Runner) oracleFigPhase(maxPhases, capacityInsts int) (*stats.Table, error) {
	if maxPhases <= 0 {
		maxPhases = DefaultPhaseCount
	}
	if capacityInsts <= 0 {
		capacityInsts = DefaultPhaseCapacityInsts
	}
	if capacityInsts < tol.MinCacheCapacityInsts {
		return nil, fmt.Errorf("experiments: phase capacity %d below minimum %d",
			capacityInsts, tol.MinCacheCapacityInsts)
	}
	pool := r.phasePool()

	progs := make([]workload.Program, 0, maxPhases)
	for n := 1; n <= maxPhases; n++ {
		var members []workload.Spec
		for i := 0; i < n; i++ {
			spec, err := workload.ByName(pool[i%len(pool)])
			if err != nil {
				return nil, fmt.Errorf("experiments: phase member: %w", err)
			}
			members = append(members, spec.Scale(r.opts.Scale))
		}
		p, err := workload.Phased("", members...)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		progs = append(progs, p)
	}
	policies := tol.RegisteredEvictionPolicies()

	type point struct {
		phases int
		policy string
	}
	var jobs []darco.Job
	var points []point
	for n, p := range progs {
		jobs = append(jobs, r.oraclePhaseJob(p, 0, ""))
		points = append(points, point{n + 1, ""})
		for _, pol := range policies {
			jobs = append(jobs, r.oraclePhaseJob(p, capacityInsts, pol))
			points = append(points, point{n + 1, pol})
		}
	}
	results := make(map[point]*darco.Result, len(jobs))
	for i, br := range r.sess.RunBatch(r.opts.Context, jobs) {
		if br.Err != nil {
			return nil, br.Err
		}
		results[points[i]] = br.Result
	}

	t := stats.NewTable(
		fmt.Sprintf("Figure PHASE: eviction and retranslation vs. phase count (cc-size %d)", capacityInsts),
		"phases", "workload", "policy", "cycles", "slowdown",
		"evictions", "flushes", "retrans", "retrans/Kdyn", "cc-peak", "tol%")
	for n, p := range progs {
		base := results[point{n + 1, ""}]
		addRow := func(policy string, res *darco.Result) {
			slow := 1.0
			if base.Timing.Cycles > 0 {
				slow = float64(res.Timing.Cycles) / float64(base.Timing.Cycles)
			}
			dyn := float64(res.TOL.DynTotal())
			rate := 0.0
			if dyn > 0 {
				rate = 1000 * float64(res.TOL.Retranslations) / dyn
			}
			peak := res.TOL.CacheOccupancyPeak
			if peak == 0 {
				peak = res.CodeCacheInsts
			}
			t.AddRow(fmt.Sprint(n+1), p.Name(), policy,
				fmt.Sprint(res.Timing.Cycles),
				fmt.Sprintf("%.3f", slow),
				fmt.Sprint(res.TOL.Evictions),
				fmt.Sprint(res.TOL.FlushCount),
				fmt.Sprint(res.TOL.Retranslations),
				fmt.Sprintf("%.2f", rate),
				fmt.Sprint(peak),
				fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()))
		}
		addRow("unbounded", base)
		for _, pol := range policies {
			addRow(pol, results[point{n + 1, pol}])
		}
	}
	return t, nil
}

// oracleFigSample is the pre-refactor FigSample.
func (r *Runner) oracleFigSample(plan *sample.Config) (*stats.Table, error) {
	sc := DefaultSamplePlan
	if plan != nil {
		sc = *plan
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sess := darco.NewSession(darco.WithWorkers(r.opts.Jobs))

	t := stats.NewTable(
		fmt.Sprintf("Figure SAMPLE: sampled vs full simulation (interval %d, every %d, warmup %d)",
			sc.Interval, sc.Every, sc.Warmup),
		"benchmark", "suite", "full-cycles", "est-cycles", "err%", "ci95%",
		"measured", "full-s", "sampled-s", "speedup")
	var sumErr, worstErr, sumSpeed float64
	n := 0
	err := r.oracleForEach(func(p workload.Program) error {
		t0 := time.Now()
		full, err := sess.Run(r.opts.Context, r.oracleSampleJob(p, nil))
		if err != nil {
			return err
		}
		fullDur := time.Since(t0)
		t0 = time.Now()
		sampled, err := sess.Run(r.opts.Context, r.oracleSampleJob(p, &sc))
		if err != nil {
			return err
		}
		sampDur := time.Since(t0)
		rep := sampled.Sampled
		if rep == nil {
			return fmt.Errorf("experiments: sampled run of %s carries no report", p.Name())
		}

		fullCyc := float64(full.Timing.Cycles)
		errPct := 0.0
		if fullCyc > 0 {
			errPct = 100 * abs(float64(rep.EstCycles)-fullCyc) / fullCyc
		}
		ciPct := 0.0
		if m, ok := rep.Metric("cycles"); ok {
			ciPct = 100 * m.RelErr
		}
		speed := 0.0
		if sampDur > 0 {
			speed = float64(fullDur) / float64(sampDur)
		}
		t.AddRow(p.Name(), p.Meta().Suite,
			fmt.Sprint(full.Timing.Cycles),
			fmt.Sprint(rep.EstCycles),
			fmt.Sprintf("%.2f", errPct),
			fmt.Sprintf("%.2f", ciPct),
			fmt.Sprintf("%d/%d", len(rep.Measured), rep.Intervals),
			fmt.Sprintf("%.3f", fullDur.Seconds()),
			fmt.Sprintf("%.3f", sampDur.Seconds()),
			fmt.Sprintf("%.1f", speed))
		sumErr += errPct
		if errPct > worstErr {
			worstErr = errPct
		}
		sumSpeed += speed
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n > 0 {
		t.AddRow("AVG", "", "", "",
			fmt.Sprintf("%.2f", sumErr/float64(n)), "", "", "", "",
			fmt.Sprintf("%.1f", sumSpeed/float64(n)))
		t.AddRow("MAX-ERR", "", "", "", fmt.Sprintf("%.2f", worstErr), "", "", "", "", "")
	}
	return t, nil
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// TestFiguresMatchOracle regenerates every figure through the grid
// engine and through its pre-refactor oracle on the same runner and
// requires identical tables. The oracle resubmits the identical jobs,
// so equal memo keys make its runs session cache hits — itself part of
// the contract. FigSample's wall-clock columns (full-s, sampled-s,
// speedup) are measured times and necessarily differ between the two
// executions, so they are exempt.
func TestFiguresMatchOracle(t *testing.T) {
	runner := func(t *testing.T, benches ...string) *Runner {
		t.Helper()
		opts := DefaultOptions()
		opts.Scale = 0.2
		opts.Benchmarks = benches
		opts.Config = darco.DefaultConfig()
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one := func(tb *stats.Table, err error) ([]*stats.Table, error) { return []*stats.Table{tb}, err }
	two := func(a, b *stats.Table, err error) ([]*stats.Table, error) { return []*stats.Table{a, b}, err }
	// Figures 5–11 share one runner, so every mode is simulated once;
	// its benchmarks include two outliers and span two suites, one with
	// two members, so every row kind of Figures 9–11 is compared.
	figs := testRunner(t)
	caps := []int{0, 1024, 512}
	plan := sample.Config{Interval: 10_000, Every: 3, Warmup: 1_000}
	for _, tc := range []struct {
		name         string
		r            func(t *testing.T) *Runner
		grid, oracle func(r *Runner) ([]*stats.Table, error)
		timed        map[int]bool
	}{
		{name: "Fig5", grid: func(r *Runner) ([]*stats.Table, error) { return two(r.Fig5()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return two(r.oracleFig5()) }},
		{name: "Fig6", grid: func(r *Runner) ([]*stats.Table, error) { return one(r.Fig6()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFig6()) }},
		{name: "Fig7", grid: func(r *Runner) ([]*stats.Table, error) { return one(r.Fig7()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFig7()) }},
		{name: "Fig7b", grid: func(r *Runner) ([]*stats.Table, error) { return one(r.Fig7b()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFig7b()) }},
		{name: "Fig8", grid: func(r *Runner) ([]*stats.Table, error) { return one(r.Fig8()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFig8()) }},
		{name: "Fig9", grid: func(r *Runner) ([]*stats.Table, error) { return one(r.Fig9()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFig9()) }},
		{name: "Fig10", grid: func(r *Runner) ([]*stats.Table, error) { return one(r.Fig10()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFig10()) }},
		{name: "Fig11", grid: func(r *Runner) ([]*stats.Table, error) { return two(r.Fig11()) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return two(r.oracleFig11()) }},
		{name: "FigCC", r: func(t *testing.T) *Runner { return runner(t, "006.jpg2000dec") },
			grid:   func(r *Runner) ([]*stats.Table, error) { return one(r.FigCC(caps)) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFigCC(caps)) }},
		{name: "FigPhase", r: func(t *testing.T) *Runner { return runner(t, "401.bzip2", "462.libquantum") },
			grid:   func(r *Runner) ([]*stats.Table, error) { return one(r.FigPhase(2, 2048)) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFigPhase(2, 2048)) }},
		{name: "FigSample", r: func(t *testing.T) *Runner { return runner(t, "462.libquantum") },
			grid:   func(r *Runner) ([]*stats.Table, error) { return one(r.FigSample(&plan)) },
			oracle: func(r *Runner) ([]*stats.Table, error) { return one(r.oracleFigSample(&plan)) },
			timed:  map[int]bool{7: true, 8: true, 9: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := figs
			if tc.r != nil {
				r = tc.r(t)
			}
			got, err := tc.grid(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.oracle(r)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				g, w := got[i], want[i]
				if tc.timed == nil {
					if g.String() != w.String() {
						t.Errorf("table %d diverged from pre-refactor output:\ngrid:\n%s\noracle:\n%s", i, g, w)
					}
					continue
				}
				if g.Title != w.Title || strings.Join(g.Headers, ",") != strings.Join(w.Headers, ",") {
					t.Fatalf("header diverged: %q %v vs %q %v", g.Title, g.Headers, w.Title, w.Headers)
				}
				if len(g.Rows) != len(w.Rows) {
					t.Fatalf("rows = %d, want %d", len(g.Rows), len(w.Rows))
				}
				for row := range g.Rows {
					for c := range g.Rows[row] {
						if !tc.timed[c] && g.Rows[row][c] != w.Rows[row][c] {
							t.Errorf("row %d col %d (%s): grid %q, oracle %q",
								row, c, g.Headers[c], g.Rows[row][c], w.Rows[row][c])
						}
					}
				}
			}
		})
	}
}

// TestGridJobKeysMatchOracle pins memo-key compatibility directly:
// every grid-built job must share its content address with the
// hand-rolled job the figures used before the refactor, so persistent
// stores filled earlier keep serving, and accessors and grid cells
// keep memoizing into one another.
func TestGridJobKeysMatchOracle(t *testing.T) {
	r := testRunner(t)
	p := r.progs[0]
	key := func(j darco.Job, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		k, err := j.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ok := func(j darco.Job) (darco.Job, error) { return j, nil }

	// The mode grid of Figures 5–11, every leg: the keys its cells
	// were filed under against the hand-rolled per-mode jobs.
	modes := []timing.Mode{timing.ModeShared, timing.ModeTOLOnly, timing.ModeSplit}
	ws, err := r.runModes(modes...)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		for j, row := range w {
			if want := key(ok(r.oracleJob(r.progs[i], modes[j]))); row.Key != want {
				t.Errorf("%s %v: key %q, want %q", row.Name, modes[j], row.Key, want)
			}
		}
	}

	zero := 0
	capacity := 512
	for _, pol := range tol.RegisteredEvictionPolicies() {
		got := key(sweep.JobFor(p, r.oracleRef(p), r.opts.Scale, r.opts.Config,
			&darco.Knobs{Mode: "shared"}, &darco.Knobs{CCPolicy: pol}, &darco.Knobs{CCSize: &capacity}))
		want := key(ok(r.oracleCCJob(p, capacity, pol)))
		if got != want {
			t.Errorf("cc %s: key %q, want %q", pol, got, want)
		}
	}
	got := key(sweep.JobFor(p, r.oracleRef(p), r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared"}, &darco.Knobs{}, &darco.Knobs{CCSize: &zero}))
	if want := key(ok(r.oracleCCJob(p, 0, ""))); got != want {
		t.Errorf("cc baseline: key %q, want %q", got, want)
	}

	// Phase composites: the grid opens "phased:a+b" and scales it; the
	// oracle scales the members and joins them by hand.
	ref := "phased:401.bzip2+462.libquantum"
	pp, err := workload.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	if pp, err = workload.ScaleProgram(pp, r.opts.Scale); err != nil {
		t.Fatal(err)
	}
	var members []workload.Spec
	for _, name := range []string{"401.bzip2", "462.libquantum"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, spec.Scale(r.opts.Scale))
	}
	op, err := workload.Phased("", members...)
	if err != nil {
		t.Fatal(err)
	}
	got = key(sweep.JobFor(pp, ref, r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared"}, &darco.Knobs{CCSize: &capacity, CCPolicy: "flush-all"}))
	if want := key(ok(r.oraclePhaseJob(op, capacity, "flush-all"))); got != want {
		t.Errorf("phase: key %q, want %q", got, want)
	}

	// Sampled and full legs of FigSample.
	sc := sample.Config{Interval: 10_000, Every: 3, Warmup: 1_000}
	got = key(sweep.JobFor(p, r.oracleRef(p), r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared", NoSample: true},
		&darco.Knobs{Sample: &darco.SamplePlan{Every: sc.Every, Interval: sc.Interval, Warmup: &sc.Warmup}}))
	if want := key(ok(r.oracleSampleJob(p, &sc))); got != want {
		t.Errorf("sampled leg: key %q, want %q", got, want)
	}
	got = key(sweep.JobFor(p, r.oracleRef(p), r.opts.Scale, r.opts.Config,
		&darco.Knobs{Mode: "shared", NoSample: true}))
	if want := key(ok(r.oracleSampleJob(p, nil))); got != want {
		t.Errorf("full leg: key %q, want %q", got, want)
	}
}
