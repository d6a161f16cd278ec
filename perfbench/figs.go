package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/darco"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// figSubset is bench_test.go's representative slice of the catalog: one
// benchmark per characterization regime the paper analyzes.
var figSubset = []string{
	"462.libquantum",
	"470.lbm",
	"400.perlbench",
	"107.novis_ragdoll",
	"007.jpg2000enc",
	"000.cjpeg",
}

// figsRV32 are the RV32I starters of the sweep.
var figsRV32 = []string{"rv32:429.mcf", "rv32:401.bzip2"}

// maxCyclesGuard is darco's runaway guard for a Config that leaves
// MaxCycles zero; the traced run applies the same guard.
const maxCyclesGuard = 200_000_000_000

// figsRefs returns the sweep's workload references for a seed: the seed
// picks the two fuzz programs.
func figsRefs(seed int64) []string {
	refs := append(append([]string{}, figSubset...), figsRV32...)
	return append(refs, fmt.Sprintf("fuzz:%d/hot", seed), fmt.Sprintf("fuzz:%d/indirect", seed))
}

// figs is a detailed full-pipeline sweep at the default configuration
// (shared mode, O2, cosim on, unbounded code cache), run through
// sweep.RunOn on a fresh Session with no store in every pass.
type figs struct {
	progs []*program
	byRef map[string]*program
	grid  *sweep.Grid
}

func setupFigs(seed int64, t *tracer) (bench, error) {
	refs := figsRefs(seed)
	progs, err := resolveAll(t, refs, 1)
	if err != nil {
		return nil, err
	}
	g := &sweep.Grid{Name: "perfbench-figs", Workloads: refs}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	w := &figs{progs: progs, byRef: map[string]*program{}, grid: g}
	for _, p := range progs {
		w.byRef[p.ref] = p
	}
	return w, nil
}

func (w *figs) programs() []*program { return w.progs }

// jobTimes are the Session event times of one job, as offsets from the
// start of the pass.
type jobTimes struct {
	queued, started, done time.Duration
	cached                bool
}

// eventLog records Session events. The Session delivers them serially
// and before the job's Run returns, so the map needs no lock once the
// sweep has returned; the mutex only orders the recording.
type eventLog struct {
	start time.Time
	mu    sync.Mutex
	jobs  map[string]*jobTimes
}

func newEventLog() *eventLog { return &eventLog{start: time.Now(), jobs: map[string]*jobTimes{}} }

func (l *eventLog) record(ev darco.Event) {
	at := time.Since(l.start)
	l.mu.Lock()
	defer l.mu.Unlock()
	j := l.jobs[ev.Job]
	if j == nil {
		j = &jobTimes{}
		l.jobs[ev.Job] = j
	}
	switch ev.Kind {
	case darco.EventQueued:
		j.queued = at
	case darco.EventStarted:
		j.started = at
	case darco.EventDone, darco.EventFailed:
		j.done = at
	case darco.EventCached:
		j.cached, j.done = true, at
	}
}

func (w *figs) pass(ctx context.Context, t *tracer) (*passResult, error) {
	log := newEventLog()
	opts := []darco.SessionOption{darco.WithWorkers(workers), darco.WithEvents(log.record)}
	sw := t.start("sweep.run", "", 0)
	if t != nil {
		opts = append(opts, darco.WithRemote(&tracedExec{t: t, byRef: w.byRef, parent: sw.id}))
	}
	rs, err := sweep.RunOn(ctx, darco.NewSession(opts...), w.grid, sweep.Options{})
	sw.end()
	if err != nil {
		return nil, err
	}
	// The report is part of what a user waits for.
	rp := t.start("sweep.report", "", 0)
	_ = rs.CSV()
	rp.end()

	res := &passResult{jobs: len(rs.Rows)}
	var queueWait, jobRun time.Duration
	cached := 0
	for _, row := range rs.Rows {
		jt := log.jobs[row.Name]
		if row.Error != "" || row.Result == nil || jt == nil {
			res.failed++
			res.latencies = append(res.latencies, latency{ms: inf})
			continue
		}
		if row.Cached || jt.cached {
			cached++
		}
		p := w.byRef[row.Workload]
		if err := p.check(&row.Result.Final, row.Result.GuestDyn()); err != nil {
			return nil, fmt.Errorf("figs: %w: %w", err, errIncorrect)
		}
		res.guestInsts += row.Result.GuestDyn()
		res.simCycles += row.Result.Timing.Cycles
		// A cell's latency is its run time on a worker. The time since
		// the sweep started would add its place in the queue, which the
		// Session's goroutines race for; queueing shows in
		// darco.queue_wait_s.
		res.latencies = append(res.latencies, latency{ms: ms(jt.done - jt.started)})
		if err := res.addSim(row.Workload, row.Result.Timing.Cycles, row.Summary); err != nil {
			return nil, err
		}
		queueWait += jt.started - jt.queued
		jobRun += jt.done - jt.started
		if t != nil {
			res.counts.addTOL(&row.Result.TOL)
			res.counts.addTiming(row.Result.Timing, row.Result.GuestDyn())
		}
	}
	if cached > 0 {
		return nil, fmt.Errorf("figs: %d jobs were served from a cache in a fresh session: %w", cached, errIncorrect)
	}
	res.layers = map[string]float64{
		"darco.queue_wait_s": queueWait.Seconds(),
		"darco.job_run_s":    jobRun.Seconds(),
		"darco.jobs_cached":  float64(cached),
		"sweep.cells":        float64(len(rs.Rows)),
	}
	return res, nil
}

// tracedExec runs the Session's jobs in process through runTraced. It
// plugs in as the Session's darco.RemoteExecutor, the Session's hook for
// running a job elsewhere than its own run path, so the sweep, the
// Session's scheduling and its events are the same as in an untraced
// pass.
type tracedExec struct {
	t      *tracer
	byRef  map[string]*program
	parent int64
}

func (x *tracedExec) RunRemote(ctx context.Context, ref string, _ float64, cfg darco.Config, _ func(darco.Event)) (*darco.Result, error) {
	p := x.byRef[ref]
	if p == nil {
		return nil, fmt.Errorf("traced run: unknown workload %q", ref)
	}
	return runTraced(ctx, x.t, p.prog.Name(), x.parent, cfg, p.prog)
}

// runTraced is the Session's job path: the program build, as the
// Session does it inside every job, then darco's full-detail run path,
// tol.NewEngine feeding timing.Simulator.RunContext, with the engine
// behind the engineSource timing wrapper. It records a "darco.job" span
// holding a "workload.build" span and a "timing.run" span, which holds
// the "tol.engine" spans. The stream the simulator consumes is the
// engine's own, so the Result equals the one darco.Run returns for the
// same program and configuration.
func runTraced(ctx context.Context, t *tracer, job string, parent int64, cfg darco.Config, prog workload.Program) (*darco.Result, error) {
	js := t.start("darco.job", job, parent)
	defer js.end()
	bs := t.start("workload.build", job, js.id)
	img, err := prog.Build()
	bs.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", job, err)
	}
	eng := tol.NewEngine(cfg.TOL, img)
	eng.SetContext(ctx)
	sim := timing.NewSimulator(cfg.Timing, cfg.Mode)
	sim.MaxCycles = cfg.MaxCycles
	if sim.MaxCycles == 0 {
		sim.MaxCycles = maxCyclesGuard
	}
	ts := t.start("timing.run", job, js.id)
	src := &engineSource{eng: eng, t: t, job: job, parent: ts.id}
	tres, err := sim.RunContext(ctx, src)
	ts.end()
	src.flush()
	if err != nil {
		return nil, err
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	if !eng.Halted() {
		return nil, fmt.Errorf("%s: guest program did not halt", job)
	}
	return &darco.Result{
		Timing:         tres,
		TOL:            eng.Stats,
		CodeCacheInsts: eng.CC.UsedInsts(),
		Translations:   len(eng.CC.Translations()),
		Final:          *eng.GuestState(),
	}, nil
}
