package main

import (
	"time"

	"repro/internal/timing"
	"repro/internal/tol"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric the traced run prints, in
// output order. A workload that does not exercise a layer reports 0 for
// its metrics (the figs workload takes no snapshots, for instance).
var layerMetrics = []layerMetric{
	{"workload.build_s", "s"}, {"workload.programs", "count"},
	{"emu.ref_s", "s"}, {"emu.ns_per_inst", "ns"},
	{"tol.engine_s", "s"}, {"tol.ns_per_guest_inst", "ns"}, {"tol.functional_s", "s"},
	{"tol.translated_frac", "ratio"}, {"tol.dyn_im", "count"}, {"tol.bb_translated", "count"},
	{"tol.sb_created", "count"}, {"tol.evictions", "count"}, {"tol.retranslations", "count"},
	{"tol.probes_per_lookup", "ratio"}, {"tol.cosim_checks", "count"},
	{"timing.self_s", "s"}, {"timing.ns_per_cycle", "ns"}, {"timing.ns_per_host_inst", "ns"},
	{"timing.cycles", "count"}, {"timing.host_insts", "count"}, {"timing.tol_share", "ratio"},
	{"snapshot.capture_s", "s"}, {"snapshot.restore_s", "s"}, {"snapshot.bytes", "bytes"},
	{"sample.run_s", "s"}, {"sample.intervals_measured", "count"}, {"sample.detail_frac", "ratio"},
	{"sample.ci_pct", "%"},
	{"darco.queue_wait_s", "s"}, {"darco.job_run_s", "s"}, {"darco.jobs_cached", "count"},
	{"sweep.cells", "count"}, {"sweep.report_s", "s"},
	{"store.get_ms", "ms"}, {"store.put_ms", "ms"}, {"store.bytes", "bytes"}, {"store.hit_ratio", "ratio"},
	{"serve.submit_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.run_ms", "ms"},
	{"serve.result_ms", "ms"}, {"serve.rejected", "count"}, {"serve.from_cache", "count"},
	{"serve.hit_latency_p50_ms", "ms"},
	{"trace.overhead_s", "s"}, {"trace.coverage", "ratio"},
}

// spanTotals maps per-layer metrics to the span whose summed duration
// (in seconds) they report.
var spanTotals = map[string]string{
	"tol.engine_s":       "tol.engine",
	"tol.functional_s":   "tol.functional",
	"snapshot.capture_s": "snapshot.capture",
	"snapshot.restore_s": "snapshot.restore",
	"sample.run_s":       "sample.run",
	"sweep.report_s":     "sweep.report",
}

// spanMedians maps per-call metrics to the span whose median duration
// (in milliseconds) they report.
var spanMedians = map[string]string{
	"store.get_ms":        "store.get",
	"store.put_ms":        "store.put",
	"serve.submit_ms":     "serve.submit",
	"serve.queue_wait_ms": "serve.queue_wait",
	"serve.run_ms":        "serve.run",
	"serve.result_ms":     "serve.result",
}

// counts accumulates the simulated work of a traced pass: TOL activity
// over every run, and the timing simulator's output over the runs it
// timed.
type counts struct {
	dynIM, dynTotal, dynTranslated uint64
	bbTranslated, sbCreated        int
	evictions, retranslations      uint64
	lookups, probes, cosimChecks   uint64
	cycles, hostInsts, timedGuest  uint64
	tolCycles                      float64
}

// addTOL adds one run's TOL statistics.
func (c *counts) addTOL(s *tol.Stats) {
	c.dynIM += s.DynIM
	c.dynTotal += s.DynTotal()
	c.dynTranslated += s.DynBBM + s.DynSBM
	c.bbTranslated += s.BBTranslated
	c.sbCreated += s.SBCreated
	c.evictions += s.Evictions
	c.retranslations += s.Retranslations
	c.lookups += s.Lookups
	c.probes += s.LookupProbes
	c.cosimChecks += s.CosimChecks
}

// addTiming adds one timed window: its result and the guest
// instructions the engine retired while feeding it.
func (c *counts) addTiming(r *timing.Result, guest uint64) {
	c.cycles += r.Cycles
	c.hostInsts += r.TotalInsts()
	c.tolCycles += r.OwnerCycles(timing.OwnerTOL)
	c.timedGuest += guest
}

// layerValues computes the per-layer metrics of one traced pass from
// its spans, its counts and the workload-specific values it reported.
func layerValues(ss []span, c *counts, extra map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range extra {
		m[k] = v
	}
	for metric, name := range spanTotals {
		m[metric] = totalOf(ss, name).Seconds()
	}
	for metric, name := range spanMedians {
		var ds []float64
		for _, s := range ss {
			if s.Name == name {
				ds = append(ds, ms(s.End-s.Start))
			}
		}
		m[metric] = median(ds)
	}
	self := selfTimes(ss)
	engine := totalOf(ss, "tol.engine")
	m["timing.self_s"] = self["timing"].Seconds()
	m["tol.ns_per_guest_inst"] = ratio(float64(engine.Nanoseconds()), float64(c.timedGuest))
	m["timing.ns_per_cycle"] = ratio(float64(self["timing"].Nanoseconds()), float64(c.cycles))
	m["timing.ns_per_host_inst"] = ratio(float64(self["timing"].Nanoseconds()), float64(c.hostInsts))
	m["timing.cycles"] = float64(c.cycles)
	m["timing.host_insts"] = float64(c.hostInsts)
	m["timing.tol_share"] = ratio(c.tolCycles, float64(c.cycles))
	m["tol.translated_frac"] = ratio(float64(c.dynTranslated), float64(c.dynTotal))
	m["tol.dyn_im"] = float64(c.dynIM)
	m["tol.bb_translated"] = float64(c.bbTranslated)
	m["tol.sb_created"] = float64(c.sbCreated)
	m["tol.evictions"] = float64(c.evictions)
	m["tol.retranslations"] = float64(c.retranslations)
	m["tol.probes_per_lookup"] = ratio(float64(c.probes), float64(c.lookups))
	m["tol.cosim_checks"] = float64(c.cosimChecks)
	// Simulation wall time is the Session's job run time where a
	// Session ran the jobs (figs).
	m["trace.coverage"] = ratio(m["tol.engine_s"]+m["timing.self_s"], m["darco.job_run_s"])
	return m
}

// setupValues computes the per-layer metrics of a traced set-up that
// built the given programs.
func setupValues(ss []span, progs []*program, m map[string]float64) {
	var refInsts uint64
	for _, p := range progs {
		refInsts += p.wantInsts
	}
	ref := totalOf(ss, "emu.ref")
	m["workload.build_s"] = totalOf(ss, "workload.build").Seconds()
	m["workload.programs"] = float64(len(progs))
	m["emu.ref_s"] = ref.Seconds()
	m["emu.ns_per_inst"] = ratio(float64(ref.Nanoseconds()), float64(refInsts))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOf returns, per metric, the median across traced passes.
func medianOf(passes []map[string]float64) map[string]float64 {
	keys := map[string]bool{}
	for _, p := range passes {
		for k := range p {
			keys[k] = true
		}
	}
	out := map[string]float64{}
	for k := range keys {
		var vs []float64
		for _, p := range passes {
			vs = append(vs, p[k])
		}
		out[k] = median(vs)
	}
	return out
}
