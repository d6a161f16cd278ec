// Command perfbench is the repository's benchmark of record. It runs
// one named workload against the simulator's public API, checks every
// output against an independent reference, and prints the end-to-end
// metrics by name with their units; with -trace 1 it runs the workload
// a second time with spans recorded around the calls into each layer
// and prints the per-layer metrics instead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload figs --seed 1 --seconds 20 --trace 0
//
// A change meant to alter the simulated model records the new figures
// the correctness gate compares every job with, per workload and seed:
//
//	bash perfbench/run.sh --workload figs --seed 1 --write-expected
//
// See README.md in this directory for the workloads, the metrics and
// what each layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// workers is the parallelism of every workload: Session workers, serve
// workers and client connections. The benchmark is sized for two cores.
const workers = 2

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

// runLimit bounds a whole run, set-up included.
const runLimit = 170 * time.Second

// workDir holds what a run writes: serve stores and span files. It is
// relative to the checkout the benchmark runs in.
const workDir = ".bench_build"

// bench is one workload, set up and ready to run timed passes.
type bench interface {
	// programs returns the programs the set-up resolved and ran on the
	// reference emulator.
	programs() []*program
	// pass runs the workload once. With a non-nil tracer it is the
	// traced variant of the pass and fills passResult.counts and
	// passResult.layers.
	pass(ctx context.Context, t *tracer) (*passResult, error)
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64, t *tracer) (bench, error){
	"figs":    setupFigs,
	"sampled": setupSampled,
	"serve":   setupServe,
}

// latency is one job's submit-to-result time. A failed or refused job
// is +Inf: it misses every limit.
type latency struct {
	ms  float64
	hit bool // served without simulating
}

// passResult is what one pass reports.
type passResult struct {
	jobs, failed int
	// guestInsts and simCycles are the guest instructions retired and
	// the simulated cycles (EstCycles for sampled runs) of the jobs the
	// pass simulated.
	guestInsts, simCycles uint64
	latencies             []latency
	// sims holds each simulated job's cycles and statistics digest,
	// keyed by workload reference.
	sims map[string]simStat
	// notes are workload-specific figures printed on the detail lines.
	notes map[string]float64
	// counts and layers are filled by traced passes: the simulated work
	// behind the span times, and workload-specific per-layer metrics.
	counts counts
	layers map[string]float64
}

// measured is one timed pass with its host-side cost.
type measured struct {
	res     *passResult
	wall    time.Duration
	allocMB float64
	peakMB  float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figs, sampled or serve")
	seed := fs.Int64("seed", 1, "workload seed: picks the fuzz programs and the serve request mix")
	seconds := fs.Int("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	write := fs.Bool("write-expected", false, "run one pass and record its jobs' simulated statistics in "+expectedPath+" instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload figs|sampled|serve, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if *write {
		if err := recordExpected(ctx, *name, *seed, setup); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	r := &runner{name: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, stdout: stdout}
	out, err := r.run(ctx, setup, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if out == nil {
			return 1
		}
	}
	b, merr := json.Marshal(out)
	if merr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if err != nil || !out.Correct {
		return 1
	}
	return 0
}

// recordExpected sets a workload up, runs one checked pass and writes
// its jobs' simulated statistics to expected.json.
func recordExpected(ctx context.Context, name string, seed int64, setup func(int64, *tracer) (bench, error)) error {
	b, err := setup(seed, nil)
	if err != nil {
		return err
	}
	res, err := b.pass(ctx, nil)
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", res.failed, res.jobs)
	}
	return writeExpected(name, res.sims)
}

// runner drives one run of one workload.
type runner struct {
	name   string
	seed   int64
	budget time.Duration
	stdout io.Writer

	attempted, failed int
	digest            string
	// checked counts the jobs of a pass compared with expected.json,
	// of simulated in all.
	checked, simulated int
	// lastSpans are the spans of the latest traced pass.
	lastSpans []span
}

// errIncorrect marks a run whose outputs failed a check; the result is
// still printed, with correct=false.
var errIncorrect = errors.New("outputs failed the correctness check")

func (r *runner) run(ctx context.Context, setup func(int64, *tracer) (bench, error), traced bool) (*result, error) {
	var t *tracer
	if traced {
		t = newTracer()
	}
	// Set up several times and report the median; the tracer records
	// only the last set-up.
	var setups []float64
	var b bench
	for i := 0; i < setupRuns; i++ {
		var st *tracer
		if i == setupRuns-1 {
			st = t
		}
		start := time.Now()
		var err error
		b, err = setup(r.seed, st)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", r.name, err)
		}
	}
	setupLayers := map[string]float64{}
	if traced {
		setupValues(t.take(), b.programs(), setupLayers)
	}

	// One untimed pass lets lazy runtime set-up finish before timing.
	if _, err := r.measure(ctx, b, nil); err != nil {
		return r.incorrect(err)
	}
	budget := r.budget
	if traced {
		budget /= 2
	}
	plain, err := r.passes(ctx, b, nil, budget)
	if err != nil {
		return r.incorrect(err)
	}
	if !traced {
		return r.endToEnd(plain, median(setups)), nil
	}
	tracedRuns, err := r.passes(ctx, b, t, budget)
	if err != nil {
		return r.incorrect(err)
	}
	return r.perLayer(plain, tracedRuns, setupLayers)
}

// incorrect reports a run stopped by a failed check or job.
func (r *runner) incorrect(err error) (*result, error) {
	r.failed = max(r.failed, 1)
	r.attempted = max(r.attempted, r.failed)
	return &result{Correct: false, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}, err
}

// passes runs timed passes until the budget is spent, and at least
// three.
func (r *runner) passes(ctx context.Context, b bench, t *tracer, budget time.Duration) ([]measured, error) {
	var out []measured
	start := time.Now()
	for len(out) < 3 || time.Since(start) < budget {
		m, err := r.measure(ctx, b, t)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// measure runs one pass, records its wall time, allocation and peak
// heap, and checks that it failed no job and reproduced the simulated
// statistics of every earlier pass.
func (r *runner) measure(ctx context.Context, b bench, t *tracer) (measured, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := heapPeak()
	start := time.Now()
	res, err := b.pass(ctx, t)
	wall := time.Since(start)
	peak := stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return measured{}, err
	}
	r.attempted += res.jobs
	r.failed += res.failed
	if res.failed > 0 {
		return measured{}, fmt.Errorf("%d of %d jobs failed: %w", res.failed, res.jobs, errIncorrect)
	}
	if t != nil {
		r.lastSpans = t.take()
		res.layers = layerValues(r.lastSpans, &res.counts, res.layers)
	}
	d, err := digest(res.sims)
	if err != nil {
		return measured{}, err
	}
	if r.digest == "" {
		r.digest, r.simulated = d, len(res.sims)
		if r.checked, err = checkExpected(r.name, res.sims); err != nil {
			return measured{}, err
		}
	} else if d != r.digest {
		return measured{}, fmt.Errorf("simulated statistics changed between passes (digest %s, then %s): %w", r.digest, d, errIncorrect)
	}
	return measured{
		res:     res,
		wall:    wall,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		peakMB:  float64(peak) / 1e6,
	}, nil
}

// heapPeak samples the bytes held by live and unswept heap objects
// every millisecond until the returned function is called, which
// returns the highest sample.
func heapPeak() func() uint64 {
	const name = "/memory/classes/heap/objects:bytes"
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: name}}
		var hi uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			hi = max(hi, s[0].Value.Uint64())
			select {
			case <-done:
				peak <- hi
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// endToEnd prints the detail lines of an untraced run and returns its
// end-to-end metrics. Medians are medians over passes of each pass's
// value, so a pass's mix of short and long jobs cannot put the median
// between two of them; the tail pools the jobs of all passes.
func (r *runner) endToEnd(ms []measured, setup float64) *result {
	var walls, mips, jps, alloc, peak []float64
	var all, p50, missP50, hitP50 []float64
	nHits := 0
	notes := map[string][]float64{}
	for _, m := range ms {
		s := m.wall.Seconds()
		walls = append(walls, s)
		mips = append(mips, float64(m.res.guestInsts)/s/1e6)
		jps = append(jps, float64(m.res.jobs)/s)
		alloc = append(alloc, m.allocMB)
		peak = append(peak, m.peakMB)
		var pass, misses, hits []float64
		for _, l := range m.res.latencies {
			pass = append(pass, l.ms)
			if l.hit {
				hits = append(hits, l.ms)
			} else {
				misses = append(misses, l.ms)
			}
		}
		all = append(all, pass...)
		p50 = append(p50, median(pass))
		if len(misses) > 0 {
			missP50 = append(missP50, median(misses))
		}
		if len(hits) > 0 {
			hitP50 = append(hitP50, median(hits))
			nHits += len(hits)
		}
		for k, v := range m.res.notes {
			notes[k] = append(notes[k], v)
		}
	}
	pct, tailMS, beyond := tail(all)
	fmt.Fprintf(r.stdout, "workload %s seed %d: %d timed passes after 1 warm-up, %d set-ups\n", r.name, r.seed, len(ms), setupRuns)
	fmt.Fprintf(r.stdout, "pass wall_s: %.3f\n", walls)
	r.printDigest()
	fmt.Fprintf(r.stdout, "latency_tail_ms is p%g: %.3f ms, %d of %d samples beyond\n", pct, finite(tailMS), beyond, len(all))
	fmt.Fprintf(r.stdout, "error_rate %g (%d failed or refused of %d attempted)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if nHits > 0 {
		fmt.Fprintf(r.stdout, "hit_latency_p50_ms %.4f (%d hits of %d jobs)\n", median(hitP50), nHits, len(all))
	}
	for _, k := range sortedKeys(notes) {
		fmt.Fprintf(r.stdout, "%s %.6g\n", k, median(notes[k]))
	}
	return &result{
		Correct:   true,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"setup_s":             {setup, "s"},
			"wall_s":              {median(walls), "s"},
			"guest_mips":          {median(mips), "MIPS"},
			"sim_cycles":          {float64(ms[0].res.simCycles), "count"},
			"jobs_per_s":          {median(jps), "1/s"},
			"latency_p50_ms":      {finite(median(p50)), "ms"},
			"latency_tail_ms":     {finite(tailMS), "ms"},
			"miss_latency_p50_ms": {finite(median(missP50)), "ms"},
			"alloc_mb":            {median(alloc), "MB"},
			"peak_heap_mb":        {median(peak), "MB"},
		},
	}
}

// perLayer prints the detail lines of a traced run, writes out the
// spans of its last traced pass, and returns its per-layer metrics.
func (r *runner) perLayer(plain, traced []measured, setupLayers map[string]float64) (*result, error) {
	var passes []map[string]float64
	for _, m := range traced {
		passes = append(passes, m.res.layers)
	}
	vals := medianOf(passes)
	for k, v := range setupLayers {
		vals[k] = v
	}
	var pw, tw []float64
	for _, m := range plain {
		pw = append(pw, m.wall.Seconds())
	}
	for _, m := range traced {
		tw = append(tw, m.wall.Seconds())
	}
	vals["trace.overhead_s"] = median(tw) - median(pw)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.name, r.seed))
	if err := writeSpans(path, r.lastSpans); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.stdout, "workload %s seed %d: %d untraced and %d traced passes; spans of the last traced pass in %s\n", r.name, r.seed, len(plain), len(traced), path)
	r.printDigest()
	fmt.Fprintf(r.stdout, "tracing overhead: %.4f s per pass (traced %.4f s, untraced %.4f s)\n", vals["trace.overhead_s"], median(tw), median(pw))
	if c := vals["trace.coverage"]; c > 0 {
		fmt.Fprintf(r.stdout, "tol.engine_s + timing.self_s cover %.1f%% of simulation wall time (gap %.1f%%)\n", 100*c, 100*(1-c))
	}
	out := map[string]metric{}
	for _, lm := range layerMetrics {
		out[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: out}, nil
}

// printDigest prints the run's statistics digest and how many of its
// jobs expected.json checked.
func (r *runner) printDigest() {
	fmt.Fprintf(r.stdout, "digest %s seed %d: %s\n", r.name, r.seed, r.digest)
	fmt.Fprintf(r.stdout, "%d of %d simulated jobs matched %s\n", r.checked, r.simulated, expectedPath)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
