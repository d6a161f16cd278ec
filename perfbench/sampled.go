package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/darco"
	"repro/internal/sample"
	"repro/internal/snapshot"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// sampledScale sizes the long, high-ratio catalog programs of the
// sampled workload.
const sampledScale = 5

// sampledPlan measures every 8th 200k-instruction interval after a 20k
// instruction warm-up.
var sampledPlan = sample.Config{Interval: 200_000, Every: 8, Warmup: 20_000}

// phasedRef is the multi-phase program run under a bounded code cache,
// and phasedCache its capacity in instruction slots: about a quarter of
// what the program's translations occupy unbounded, so phase changes
// evict and retranslate.
const (
	phasedRef   = "phased:401.bzip2+462.libquantum+470.lbm"
	phasedCache = 600
)

// sampledJob is one sampled run: a program and the runner configured
// for it.
type sampledJob struct {
	p      *program
	runner sample.Runner
	// want is the report of the first untraced run; the traced run must
	// measure the same intervals and functional totals.
	want *sample.Result
}

// sampled runs SimPoint-style sampled simulations through sample.Runner,
// one program after another, each measuring its intervals on the
// worker pool. No fast-forward bundle cache is attached, so nothing
// survives between passes.
type sampled struct {
	jobs []*sampledJob
}

// sampledSpec is one program of the sampled workload; ccSlots > 0
// bounds its code cache under the lru-translation policy.
type sampledSpec struct {
	ref     string
	scale   float64
	ccSlots int
}

var sampledSpecs = []sampledSpec{
	{"462.libquantum", sampledScale, 0},
	{"470.lbm", sampledScale, 0},
	{phasedRef, 1, phasedCache},
}

func setupSampled(_ int64, t *tracer) (bench, error) { return newSampled(t, sampledSpecs) }

func newSampled(t *tracer, specs []sampledSpec) (*sampled, error) {
	w := &sampled{}
	for _, s := range specs {
		p, err := resolve(t, s.ref, s.scale)
		if err != nil {
			return nil, err
		}
		cfg := darco.DefaultConfig()
		if s.ccSlots > 0 {
			darco.ApplyCacheFlags(&cfg.TOL, s.ccSlots, "lru-translation")
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, &sampledJob{p: p, runner: sample.Runner{
			TOL:       cfg.TOL,
			Timing:    cfg.Timing,
			Mode:      cfg.Mode,
			MaxCycles: maxCyclesGuard,
			Sample:    sampledPlan,
			Parallel:  workers,
			Program:   workload.Fingerprint(p.prog),
		}})
	}
	return w, nil
}

func (w *sampled) programs() []*program {
	out := make([]*program, len(w.jobs))
	for i, j := range w.jobs {
		out[i] = j.p
	}
	return out
}

// sampledStats are the digested statistics of one sampled run.
type sampledStats struct {
	Report *sample.Report
	TOL    tol.Summary
}

func (w *sampled) pass(ctx context.Context, t *tracer) (*passResult, error) {
	res := &passResult{jobs: len(w.jobs), layers: map[string]float64{}}
	var worstCI float64
	var snapBytes int
	var measuredIntervals int
	for _, j := range w.jobs {
		start := time.Now()
		var r *sample.Result
		var err error
		if t == nil {
			r, err = j.runner.Run(ctx, j.p.image)
		} else {
			var tr *tracedSample
			tr, err = j.traced(ctx, t)
			if err == nil {
				r = j.want
				snapBytes += tr.bytes
				measuredIntervals += len(tr.intervals)
				res.counts.addTOL(&r.TOL)
				for _, c := range tr.windows {
					res.counts.addTiming(&c.res, c.guest)
				}
			}
		}
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("sampled run of %s: %w", j.p.ref, err)
		}
		if r.Report.FFCached {
			return nil, fmt.Errorf("sampled: %s reused a fast-forward bundle: %w", j.p.ref, errIncorrect)
		}
		if r.Report.GuestInsts != j.p.wantInsts {
			return nil, fmt.Errorf("sampled: %s: functional total %d guest instructions, reference %d: %w", j.p.ref, r.Report.GuestInsts, j.p.wantInsts, errIncorrect)
		}
		if err := j.p.check(&r.Final, r.TOL.DynTotal()); err != nil {
			return nil, fmt.Errorf("sampled: %w: %w", err, errIncorrect)
		}
		if j.want == nil {
			j.want = r
		}
		res.guestInsts += r.Report.GuestInsts
		res.simCycles += r.Report.EstCycles
		res.latencies = append(res.latencies, latency{ms: ms(elapsed)})
		worstCI = max(worstCI, r.Report.MaxRelErr())
		if err := res.addSim(j.p.ref, r.Report.EstCycles, sampledStats{r.Report, r.TOL.Summary()}); err != nil {
			return nil, err
		}
	}
	res.notes = map[string]float64{"sample_ci_pct": 100 * worstCI}
	if t != nil {
		res.layers["sample.ci_pct"] = 100 * worstCI
		res.layers["sample.intervals_measured"] = float64(measuredIntervals)
		res.layers["sample.detail_frac"] = ratio(float64(res.counts.timedGuest), float64(res.guestInsts))
		res.layers["snapshot.bytes"] = float64(snapBytes)
	}
	return res, nil
}

// window is one detailed-simulation window of the traced run (warm-up
// plus measured interval) and the guest instructions retired in it.
type window struct {
	res   timing.Result
	guest uint64
}

// tracedSample is the outcome of a traced sampled run.
type tracedSample struct {
	intervals []sample.Interval
	windows   []window
	bytes     int
}

// checkpoint is one interval checkpoint of the traced fast-forward.
type checkpoint struct {
	index int
	raw   []byte
}

// traced repeats sample.Runner's algorithm from the public functions it
// is built on, with spans around each call: the functional fast-forward
// ("tol.functional"), checkpoint capture ("snapshot.capture"), and per
// measured interval the restore ("snapshot.restore") and the detailed
// simulation ("timing.run" with "tol.engine" spans inside), all under
// one "sample.run" span. It must measure exactly the intervals the
// untraced run measured; a difference is an error.
func (j *sampledJob) traced(ctx context.Context, t *tracer) (*tracedSample, error) {
	if j.want == nil {
		return nil, fmt.Errorf("traced run before an untraced one")
	}
	name := j.p.prog.Name()
	r := &j.runner
	run := t.start("sample.run", name, 0)
	defer run.end()
	out := &tracedSample{}

	eng := tol.NewEngine(r.TOL, j.p.image)
	eng.SetContext(ctx)
	var cps []checkpoint
	capture := func(index int) error {
		sp := t.start("snapshot.capture", name, run.id)
		m, err := snapshot.Capture(r.Program, eng, nil)
		var raw []byte
		if err == nil {
			raw, err = snapshot.Encode(m)
		}
		sp.end()
		if err != nil {
			return err
		}
		out.bytes += len(raw)
		cps = append(cps, checkpoint{index, raw})
		return nil
	}
	if err := capture(0); err != nil {
		return nil, err
	}
	var buf [512]timing.DynInst
	var hostInsts uint64
	for next := r.Sample.Every; ; next += r.Sample.Every {
		eng.SetStopAfter(uint64(next)*r.Sample.Interval - r.Sample.Warmup)
		sp := t.start("tol.functional", name, run.id)
		for n := eng.NextBatch(buf[:]); n > 0; n = eng.NextBatch(buf[:]) {
			hostInsts += uint64(n)
		}
		sp.end()
		if err := eng.Err(); err != nil {
			return nil, err
		}
		if !eng.Paused() {
			break
		}
		if err := capture(next); err != nil {
			return nil, err
		}
	}
	if !eng.Halted() {
		return nil, fmt.Errorf("%s: guest program did not halt", name)
	}
	guest := eng.Stats.DynTotal()
	var measure []checkpoint
	for _, c := range cps {
		if uint64(c.index)*r.Sample.Interval < guest {
			measure = append(measure, c)
		}
	}

	out.intervals = make([]sample.Interval, len(measure))
	out.windows = make([]window, len(measure))
	errs := make([]error, len(measure))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range measure {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out.intervals[i], out.windows[i], errs[i] = j.measureTraced(ctx, t, run.id, measure[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	want := j.want.Report
	if guest != want.GuestInsts || hostInsts != want.HostInsts || !reflect.DeepEqual(out.intervals, want.Measured) || !reflect.DeepEqual(eng.Stats, j.want.TOL) {
		return nil, fmt.Errorf("%s: traced sampled run differs from sample.Runner: %w", name, errIncorrect)
	}
	return out, nil
}

// measureTraced simulates one interval in detail from its checkpoint,
// as sample.Runner does: restore, a cold simulator through the warm-up,
// then the measured interval.
func (j *sampledJob) measureTraced(ctx context.Context, t *tracer, parent int64, c checkpoint) (sample.Interval, window, error) {
	name := j.p.prog.Name()
	r := &j.runner
	sp := t.start("snapshot.restore", name, parent)
	m, err := snapshot.Decode(c.raw)
	var eng *tol.Engine
	if err == nil {
		eng, _, err = m.Restore(j.p.image)
	}
	sp.end()
	if err != nil {
		return sample.Interval{}, window{}, err
	}
	eng.SetContext(ctx)
	start := uint64(c.index) * r.Sample.Interval
	eng.SetStopAfter(start + r.Sample.Interval)
	sim := timing.NewSimulator(r.Timing, r.Mode)
	sim.MaxCycles = r.MaxCycles
	sim.StopWhen = func() bool { return eng.Stats.DynTotal() >= start }
	guest0 := eng.Stats.DynTotal()

	ts := t.start("timing.run", name, parent)
	src := &engineSource{eng: eng, t: t, job: name, parent: ts.id}
	var base timing.Result
	res, err := sim.RunContext(ctx, src)
	if err == timing.ErrPaused {
		base = sim.ResultSoFar()
		sim.StopWhen = nil
		res, err = sim.RunContext(ctx, src)
	}
	ts.end()
	src.flush()
	if err == nil {
		err = eng.Err()
	}
	if err != nil {
		return sample.Interval{}, window{}, fmt.Errorf("%s interval %d: %w", name, c.index, err)
	}
	measured := res.Sub(&base)
	iv := sample.Interval{Index: c.index, Start: start, HostInsts: measured.TotalInsts(), Cycles: measured.Cycles}
	if iv.HostInsts > 0 {
		iv.CPI = float64(iv.Cycles) / float64(iv.HostInsts)
	}
	return iv, window{res: *res, guest: eng.Stats.DynTotal() - guest0}, nil
}
