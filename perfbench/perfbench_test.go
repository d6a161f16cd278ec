package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/darco"
	"repro/internal/timing"
)

// TestMetricsMatchBenchmarkJSON checks that an untraced run prints
// exactly the end-to-end metrics of BENCHMARK.json and a traced run
// exactly its per-layer metrics, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	r := &runner{stdout: io.Discard}
	pass := measured{res: &passResult{jobs: 1, latencies: []latency{{ms: 1}}}, wall: time.Second}
	e2e := r.endToEnd([]measured{pass}, 1).Metrics
	layers := map[string]metric{}
	for _, lm := range layerMetrics {
		layers[lm.name] = metric{Unit: lm.unit}
	}
	for _, c := range []struct {
		kind    string
		printed map[string]metric
		listed  []struct{ Name, Unit string }
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", layers, spec.PerLayer}} {
		if len(c.printed) != len(c.listed) {
			t.Errorf("%s: %d metrics printed, %d in BENCHMARK.json", c.kind, len(c.printed), len(c.listed))
		}
		for _, m := range c.listed {
			if p, ok := c.printed[m.Name]; !ok || p.Unit != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, printed %v", c.kind, m.Name, m.Unit, p)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		name    string
		samples []float64
		pct     float64
		value   float64
		beyond  int
	}{
		// p99 and p95 leave 1 and 5 samples beyond; p90 is the highest
		// with 10.
		{"hundred", seq(100), 90, 90, 10},
		{"thousand", seq(1000), 99, 990, 10},
		// Five failures lie beyond every finite value, so they join the
		// five slow samples above p90.
		{"failures count as misses", append(seq(95), inf, inf, inf, inf, inf), 90, 90, 10},
		// Ten failures of twenty: every ladder percentile down to p50
		// has them beyond it.
		{"half failed", append(seq(10), inf, inf, inf, inf, inf, inf, inf, inf, inf, inf), 50, 10, 10},
		// Too few samples for any ladder percentile: the median, with
		// what lies beyond it.
		{"few", seq(12), 50, 6, 6},
	}
	for _, c := range cases {
		pct, v, beyond := tail(c.samples)
		if pct != c.pct || v != c.value || beyond != c.beyond {
			t.Errorf("%s: tail = p%g %g (%d beyond), want p%g %g (%d beyond)", c.name, pct, v, beyond, c.pct, c.value, c.beyond)
		}
	}
	if _, v, _ := tail([]float64{inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf}); finite(v) != math.MaxFloat64 {
		t.Errorf("all-failed tail = %g, want +Inf mapped to the largest float", finite(v))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	ss := []span{
		// A sweep whose two jobs overlap (two workers) and stick out
		// past its end; the covered part is their union inside it.
		{Name: "sweep.run", ID: 1, Start: 0, End: 100 * ms},
		{Name: "darco.job", ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "darco.job", ID: 3, Parent: 1, Start: 30 * ms, End: 110 * ms},
		// Nested: a timing run inside the first job, engine calls
		// inside the timing run.
		{Name: "timing.run", ID: 4, Parent: 2, Start: 12 * ms, End: 38 * ms},
		{Name: "tol.engine", ID: 5, Parent: 4, Start: 14 * ms, End: 18 * ms},
		{Name: "tol.engine", ID: 6, Parent: 4, Start: 20 * ms, End: 21 * ms},
		// A root span of another layer.
		{Name: "snapshot.capture", ID: 7, Start: 200 * ms, End: 205 * ms},
	}
	got := selfTimes(ss)
	want := map[string]time.Duration{
		"sweep":    100*ms - 90*ms,          // [10,100) covered by the jobs
		"darco":    (30*ms - 26*ms) + 80*ms, // job 2 minus its timing run; job 3 has no children
		"timing":   26*ms - 5*ms,            // minus two engine calls
		"tol":      5 * ms,                  // leaves
		"snapshot": 5 * ms,                  // root leaf
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d layers, want %d: %v", len(got), len(want), got)
	}
}

// TestTracedRunMatchesRun checks the timing wrapper: the traced run
// path must hand the simulator the stream darco.Run consumes, so its
// Record is byte-identical, and its engine time must lie inside its
// timing time.
func TestTracedRunMatchesRun(t *testing.T) {
	ctx := context.Background()
	for _, ref := range []string{"400.perlbench", "rv32:429.mcf", "fuzz:3/indirect"} {
		p, err := resolve(nil, ref, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		want, err := darco.Run(ctx, p.image)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := runTraced(ctx, tr, ref, 0, darco.DefaultConfig(), p.prog)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(darco.NewRecord(ref, "", 0.25, timing.ModeShared, want, nil))
		b, _ := json.Marshal(darco.NewRecord(ref, "", 0.25, timing.ModeShared, got, nil))
		if string(a) != string(b) {
			t.Errorf("%s: traced Record differs from darco.Run's", ref)
		}
		if err := p.check(&got.Final, got.GuestDyn()); err != nil {
			t.Error(err)
		}
		ss := tr.take()
		engine, run := totalOf(ss, "tol.engine"), totalOf(ss, "timing.run")
		if engine <= 0 || engine > run || selfTimes(ss)["timing"] != run-engine {
			t.Errorf("%s: engine %v, timing run %v, timing self %v", ref, engine, run, selfTimes(ss)["timing"])
		}
	}
}

// TestPassIsolation runs two passes of the figs workload and of a small
// sampled workload on one set-up: the second must simulate everything
// again (no cached job, no reused fast-forward bundle) and reproduce
// the first pass's statistics.
func TestPassIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the figs sweep twice")
	}
	ctx := context.Background()
	f, err := setupFigs(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSampled(nil, []sampledSpec{{"462.libquantum", 1, 0}, {phasedRef, 0.5, phasedCache}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []bench{f, s} {
		var sims []map[string]simStat
		for i := 0; i < 2; i++ {
			// The traced figs pass reports the Session's cached jobs.
			var tr *tracer
			if i == 1 {
				tr = newTracer()
			}
			res, err := b.pass(ctx, tr)
			if err != nil {
				t.Fatalf("pass %d: %v", i+1, err)
			}
			if res.failed != 0 || res.jobs == 0 {
				t.Fatalf("pass %d: %d of %d jobs failed", i+1, res.failed, res.jobs)
			}
			if res.layers["darco.jobs_cached"] != 0 {
				t.Errorf("pass %d: %g jobs cached", i+1, res.layers["darco.jobs_cached"])
			}
			sims = append(sims, res.sims)
		}
		if !reflect.DeepEqual(sims[0], sims[1]) {
			t.Errorf("simulated statistics differ between passes: %v", sims)
		}
	}
	for _, j := range s.jobs {
		if j.want.Report.FFCached {
			t.Errorf("%s: fast-forward bundle reused", j.p.ref)
		}
	}
}

// TestServePlan checks the request mix: every job is fresh exactly
// once, the sweep tenant reruns its whole grid before and after the
// restart, a repeat never names a job that is not already finished when
// it is sent, and every seed gives the same share of misses.
func TestServePlan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		plan := planServe(seed)
		fresh := map[string]int{}
		total, misses := 0, 0
		// stored holds the jobs finished before the restart.
		stored := map[string]bool{}
		for _, reqs := range [][serveTenants][]request{plan.before, plan.after} {
			for _, tenant := range reqs {
				done := map[string]bool{}
				for ref := range stored {
					done[ref] = true
				}
				for _, rq := range tenant {
					total++
					if rq.fresh {
						misses++
						fresh[rq.ref]++
						done[rq.ref] = true
					} else if !done[rq.ref] {
						t.Fatalf("seed %d: repeat of %s before it finished", seed, rq.ref)
					}
				}
			}
			for _, tenant := range plan.before {
				for _, rq := range tenant {
					stored[rq.ref] = true
				}
			}
		}
		if len(fresh) != len(servePool) {
			t.Fatalf("seed %d: %d distinct fresh jobs, want %d", seed, len(fresh), len(servePool))
		}
		for ref, n := range fresh {
			if n != 1 {
				t.Errorf("seed %d: %s fresh %d times", seed, ref, n)
			}
		}
		sweep := plan.before[sweepTenant]
		grid := sweep[:serveGrid]
		for i, rq := range grid {
			if !rq.fresh || sweep[serveGrid+i] != (request{ref: rq.ref}) || plan.after[sweepTenant][i] != (request{ref: rq.ref}) {
				t.Fatalf("seed %d: the sweep tenant does not rerun its grid in order", seed)
			}
		}
		if total != 3*serveGrid+len(servePool)-serveGrid || misses != len(servePool) {
			t.Errorf("seed %d: %d misses of %d requests, want %d of %d", seed, misses, total, len(servePool), 3*serveGrid+len(servePool)-serveGrid)
		}
	}
}

// TestCheckExpected checks the comparison with expected.json: a job
// whose figures differ fails the run as incorrect, a job with no entry
// is skipped, and the committed file parses.
func TestCheckExpected(t *testing.T) {
	if _, err := parseExpected(expectedJSON); err != nil {
		t.Fatal(err)
	}
	saved := expectedJSON
	defer func() { expectedJSON = saved }()
	expectedJSON = []byte(`{"figs": {"a": {"sim_cycles": 10, "digest": "d1"}}}`)
	n, err := checkExpected("figs", map[string]simStat{"a": {10, "d1"}, "b": {5, "x"}})
	if err != nil || n != 1 {
		t.Errorf("matching job: checked %d, err %v", n, err)
	}
	for _, got := range []simStat{{11, "d1"}, {10, "d2"}} {
		if _, err := checkExpected("figs", map[string]simStat{"a": got}); !errors.Is(err, errIncorrect) {
			t.Errorf("%v against {10 d1}: err %v, want errIncorrect", got, err)
		}
	}
	if n, err := checkExpected("serve", map[string]simStat{"a": {1, "z"}}); err != nil || n != 0 {
		t.Errorf("workload without entries: checked %d, err %v", n, err)
	}
}

// TestServePass runs one serve pass: each fresh request must be a miss
// matching the reference run, each repeat a hit byte-identical to its
// miss, including the reads the restarted server serves from the store.
func TestServePass(t *testing.T) {
	b, err := setupServe(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.pass(context.Background(), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d requests failed", res.failed, res.jobs)
	}
	hits := 0
	for _, l := range res.latencies {
		if l.hit {
			hits++
		}
	}
	if hits != res.jobs-len(servePool) || res.layers["serve.from_cache"] != float64(hits) {
		t.Errorf("%d hits (%g reported) of %d requests, want %d", hits, res.layers["serve.from_cache"], res.jobs, res.jobs-len(servePool))
	}
}
