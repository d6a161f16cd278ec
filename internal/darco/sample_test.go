package darco

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// sampleTestConfig keeps the sampled-run tests fast: scaled-down TOL
// thresholds so all tiers engage on small programs.
func sampleTestConfig() Config {
	c := DefaultConfig()
	c.TOL.SBThreshold = 20
	return c
}

// sampledConfig is sampleTestConfig under the sampling plan sc.
func sampledConfig(sc sample.Config) Config {
	c := sampleTestConfig()
	c.Sampling = &sc
	return c
}

func openWorkload(t *testing.T, ref string, scale float64) Job {
	t.Helper()
	job, err := WithWorkload(ref, scale, sampleTestConfig())
	if err != nil {
		t.Fatalf("open %s: %v", ref, err)
	}
	return job
}

// TestSampledRunExactFunctionalOutputs pins the sampled path end to
// end through the controller: exact TOL statistics and final state,
// estimate report attached, estimated timing populated.
func TestSampledRunExactFunctionalOutputs(t *testing.T) {
	job := openWorkload(t, "phased:401.bzip2+462.libquantum", 0.05)
	p, err := job.Program.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	full, err := sampleTestConfig().Run(context.Background(), p)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	sc := sample.Config{Interval: 5_000, Every: 3, Warmup: 1_000}
	sampled, err := sampledConfig(sc).Run(context.Background(), p)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if sampled.Sampled == nil {
		t.Fatal("sampled run carries no report")
	}
	if full.Sampled != nil {
		t.Fatal("full run carries a sampling report")
	}
	gotStats, _ := json.Marshal(&sampled.TOL)
	wantStats, _ := json.Marshal(&full.TOL)
	if !bytes.Equal(gotStats, wantStats) {
		t.Errorf("TOL stats differ between sampled and full run:\nsampled: %s\nfull:    %s", gotStats, wantStats)
	}
	if d := sampled.Final.Diff(&full.Final); d != "" {
		t.Errorf("final guest state differs: %s", d)
	}
	if sampled.Sampled.HostInsts != full.Timing.TotalInsts() {
		t.Errorf("stream length: sampled (exact) %d, full %d", sampled.Sampled.HostInsts, full.Timing.TotalInsts())
	}
	est, fullCycles := float64(sampled.Sampled.EstCycles), float64(full.Timing.Cycles)
	if est < 0.5*fullCycles || est > 1.5*fullCycles {
		t.Errorf("cycle estimate %v too far from full run's %v", est, fullCycles)
	}
	if sampled.Timing.Cycles != sampled.Sampled.EstCycles {
		t.Errorf("Result.Timing.Cycles %d != report estimate %d", sampled.Timing.Cycles, sampled.Sampled.EstCycles)
	}
}

// TestSampledSessionDeterminism is the -jobs determinism satellite: a
// sampled run through a multi-worker session must be byte-identical to
// a direct single-threaded run.
func TestSampledSessionDeterminism(t *testing.T) {
	sc := sample.Config{Interval: 4_000, Every: 2, Warmup: 500}
	ref := "synthetic:429.mcf"

	job, err := WithWorkload(ref, 0.05, sampledConfig(sc))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	p, err := job.Program.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	direct, err := sampledConfig(sc).Run(context.Background(), p)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	sess := NewSession(WithWorkers(4))
	viaSession, err := sess.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("session run: %v", err)
	}
	got, _ := json.Marshal(viaSession)
	want, _ := json.Marshal(direct)
	if !bytes.Equal(got, want) {
		t.Errorf("sampled result differs between 4-worker session and direct run:\nsession: %.200s\ndirect:  %.200s", got, want)
	}
}

// TestSampledAndFullRunsDoNotShareCacheKey pins that Sampling
// participates in the memo key: a session must never serve a sampled
// job a full run's cached result or vice versa.
func TestSampledAndFullRunsDoNotShareCacheKey(t *testing.T) {
	sc := sample.Config{Interval: 4_000, Every: 2}
	fullJob := openWorkload(t, "synthetic:429.mcf", 0.05)
	sampledJob := fullJob
	sampledJob.Config = sampledConfig(sc)

	k1, err := fullJob.Key()
	if err != nil {
		t.Fatalf("full key: %v", err)
	}
	k2, err := sampledJob.Key()
	if err != nil {
		t.Fatalf("sampled key: %v", err)
	}
	if k1 == k2 {
		t.Fatalf("sampled and full jobs share memo key %s", k1)
	}
}

// TestSnapshotRoundTripPhasedWorkload is the checkpoint byte-identity
// satellite for a phased: composite workload: pause mid-run across the
// phase structure, snapshot, restore, resume, and compare the stream
// and final statistics with an uninterrupted run.
func TestSnapshotRoundTripPhasedWorkload(t *testing.T) {
	job := openWorkload(t, "phased:401.bzip2+462.libquantum", 0.05)
	p, err := job.Program.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := sampleTestConfig().TOL

	drain := func(e *tol.Engine) []timing.DynInst {
		var out []timing.DynInst
		var buf [256]timing.DynInst
		for {
			n := e.NextBatch(buf[:])
			if n == 0 {
				return out
			}
			out = append(out, buf[:n]...)
		}
	}

	ref := tol.NewEngine(cfg, p)
	full := drain(ref)
	if err := ref.Err(); err != nil || !ref.Halted() {
		t.Fatalf("reference run: err=%v halted=%v", err, ref.Halted())
	}

	a := tol.NewEngine(cfg, p)
	a.SetStopAfter(ref.Stats.DynTotal() / 2)
	prefix := drain(a)
	if !a.Paused() {
		t.Fatal("engine did not pause")
	}
	sn, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	blob, err := json.Marshal(sn)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded tol.EngineSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b, err := tol.RestoreEngine(p, &decoded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	suffix := drain(b)
	if err := b.Err(); err != nil || !b.Halted() {
		t.Fatalf("resumed run: err=%v halted=%v", err, b.Halted())
	}
	if got, want := len(prefix)+len(suffix), len(full); got != want {
		t.Fatalf("stream length: %d+%d=%d, uninterrupted %d", len(prefix), len(suffix), got, want)
	}
	for i := range full {
		d := prefix
		j := i
		if i >= len(prefix) {
			d, j = suffix, i-len(prefix)
		}
		if d[j] != full[i] {
			t.Fatalf("stream diverges at instruction %d", i)
		}
	}
	gotStats, _ := json.Marshal(&b.Stats)
	wantStats, _ := json.Marshal(&ref.Stats)
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatalf("final stats differ:\nresumed:       %s\nuninterrupted: %s", gotStats, wantStats)
	}
	if d := b.GuestState().Diff(ref.GuestState()); d != "" {
		t.Fatalf("final guest state differs: %s", d)
	}
	_ = workload.Fingerprint(job.Program) // phased programs are fingerprintable (bundle cache key)
}
