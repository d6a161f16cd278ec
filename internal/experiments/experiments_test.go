package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// testRunner builds a small-session runner over three contrasting
// benchmarks at reduced scale, with cosim on (every run verified).
func testRunner(t *testing.T) *Runner {
	t.Helper()
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"462.libquantum", "400.perlbench", "107.novis_ragdoll"}
	opts.Config = darco.DefaultConfig()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFig5Shapes(t *testing.T) {
	r := testRunner(t)
	ta, tb, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// 3 benchmark rows + suite averages.
	if len(ta.Rows) < 3 || len(tb.Rows) < 3 {
		t.Fatalf("rows: %d/%d", len(ta.Rows), len(tb.Rows))
	}
	// libquantum: dynamic SBM share must dominate (first row, SBM col 4).
	if !strings.HasPrefix(tb.Rows[0][0], "462") {
		t.Fatalf("row order: %v", tb.Rows[0])
	}
	var sbm float64
	if _, err := fscan(tb.Rows[0][4], &sbm); err != nil {
		t.Fatal(err)
	}
	if sbm < 90 {
		t.Fatalf("libquantum dynamic SBM = %.1f%%, want > 90%%", sbm)
	}
}

func TestFig6OverheadOrdering(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	ov := map[string]float64{}
	for _, row := range tab.Rows {
		var v float64
		if _, err := fscan(row[2], &v); err != nil {
			t.Fatal(err)
		}
		ov[row[0]] = v
	}
	// The paper's central anti-correlation: the extreme-ratio benchmark
	// has far less overhead than the low-ratio one.
	if ov["462.libquantum"] >= ov["107.novis_ragdoll"] {
		t.Fatalf("overhead ordering broken: libquantum %.1f >= ragdoll %.1f",
			ov["462.libquantum"], ov["107.novis_ragdoll"])
	}
	if ov["462.libquantum"] > 15 {
		t.Fatalf("libquantum overhead = %.1f%%, want small", ov["462.libquantum"])
	}
}

func TestFig7ComponentsPresent(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// perlbench's indirect-branch count (last column) must dwarf
	// libquantum's.
	var perl, libq float64
	for _, row := range tab.Rows {
		var v float64
		if _, err := fscan(row[8], &v); err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(row[0], "400"):
			perl = v
		case strings.HasPrefix(row[0], "462"):
			libq = v
		}
	}
	if perl < 100*libq && perl < 1000 {
		t.Fatalf("indirect counts: perlbench %v vs libquantum %v", perl, libq)
	}
}

// TestFig7bSumsToAggregate: the per-pass SBM split of Figure 7b must
// sum (pass columns + sbm-other) to the aggregate SBM component time
// of Figure 7, per benchmark — the defining property of the per-pass
// attribution.
func TestFig7bSumsToAggregate(t *testing.T) {
	r := testRunner(t)
	t7, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	t7b, err := r.Fig7b()
	if err != nil {
		t.Fatal(err)
	}
	if len(t7b.Rows) != len(t7.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(t7b.Rows), len(t7.Rows))
	}
	// Fig7b columns: benchmark, suite, <passes...>, sbm-other, eliminated.
	nPass := len(t7b.Headers) - 4
	if nPass < 1 {
		t.Fatalf("headers: %v", t7b.Headers)
	}
	for i, row := range t7b.Rows {
		var sum float64
		for c := 2; c < 2+nPass+1; c++ { // passes + sbm-other
			var v float64
			if _, err := fscan(row[c], &v); err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		var sbm float64
		if _, err := fscan(t7.Rows[i][5], &sbm); err != nil {
			t.Fatal(err)
		}
		if diff := sum - sbm; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: per-pass sum %.3f%% != aggregate SBM %.2f%%", row[0], sum, sbm)
		}
	}
}

func TestFig8IPCVariance(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1e9, 0.0
	for _, row := range tab.Rows {
		var v float64
		if _, err := fscan(row[2], &v); err != nil {
			t.Fatal(err)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// The paper's headline: TOL IPC varies across applications.
	if hi-lo < 0.05 {
		t.Fatalf("TOL IPC range [%.2f, %.2f] implausibly flat", lo, hi)
	}
	if lo <= 0 || hi > 2 {
		t.Fatalf("TOL IPC out of range: [%.2f, %.2f]", lo, hi)
	}
}

func TestFig9SumsToTotal(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		sum := 0.0
		for _, cell := range row[1:] {
			var v float64
			if _, err := fscan(cell, &v); err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum < 95 || sum > 101 {
			t.Fatalf("row %s sums to %.1f%%", row[0], sum)
		}
	}
}

func TestFig10And11Run(t *testing.T) {
	if testing.Short() {
		t.Skip("interaction runs are slow")
	}
	opts := DefaultOptions()
	opts.Scale = 0.2
	opts.Benchmarks = []string{"400.perlbench", "470.lbm"}
	opts.Config = darco.DefaultConfig()
	opts.Config.TOL.Cosim = false
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	t10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(t10.Rows) < 2 {
		t.Fatalf("fig10 rows = %d", len(t10.Rows))
	}
	ta, tb, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Rows) != len(tb.Rows) {
		t.Fatal("fig11 row mismatch")
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	opts := DefaultOptions()
	opts.Benchmarks = []string{"does-not-exist"}
	if _, err := NewRunner(opts); err == nil {
		t.Fatal("expected error")
	}
}

// fscan parses one float from a table cell.
func fscan(cell string, v *float64) (int, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		*v = 0
		return 0, nil
	}
	return fmt.Sscan(cell, v)
}

// countRuns counts the "run " progress lines a runner logged — one per
// simulated (not memoized or preloaded) job.
func countRuns(log string) int {
	n := 0
	for _, line := range strings.Split(log, "\n") {
		if strings.HasPrefix(line, "run ") {
			n++
		}
	}
	return n
}

// TestFig10ReusesSharedLegs: Figure 10 reads the shared and split legs
// of every workload from the mode grid, so after Figure 6 has run the
// shared legs, Figure 10 simulates exactly the split ones.
func TestFig10ReusesSharedLegs(t *testing.T) {
	var log bytes.Buffer
	opts := DefaultOptions()
	opts.Scale = 0.1
	opts.Benchmarks = []string{"470.lbm", "462.libquantum"}
	opts.Config.TOL.Cosim = false
	opts.Log = &log
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig6(); err != nil {
		t.Fatal(err)
	}
	if n := countRuns(log.String()); n != len(opts.Benchmarks) {
		t.Fatalf("Fig6 simulated %d jobs, want %d:\n%s", n, len(opts.Benchmarks), log.String())
	}
	log.Reset()
	if _, err := r.Fig10(); err != nil {
		t.Fatal(err)
	}
	if n := countRuns(log.String()); n != len(opts.Benchmarks) {
		t.Fatalf("Fig10 after Fig6 simulated %d jobs, want %d (split legs only):\n%s",
			n, len(opts.Benchmarks), log.String())
	}
	if strings.Contains(log.String(), "shared") {
		t.Errorf("Fig10 re-simulated a shared leg:\n%s", log.String())
	}
}

// TestPreloadServesFigures: a runner preloaded with another runner's
// shared results as darco.Records regenerates Figure 6 without
// simulating, byte-identically.
func TestPreloadServesFigures(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	opts.Benchmarks = []string{"470.lbm", "400.perlbench"}
	opts.Config.TOL.Cosim = false
	a, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := a.runModes(timing.ModeShared)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		opts.Preload = append(opts.Preload,
			darco.NewRecord(w[0].Name, w[0].Suite, opts.Scale, timing.ModeShared, w[0].Result, nil))
	}
	var log bytes.Buffer
	opts.Log = &log
	b, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if n := countRuns(log.String()); n != 0 {
		t.Errorf("preloaded Fig6 simulated %d jobs:\n%s", n, log.String())
	}
	if got.String() != want.String() {
		t.Errorf("preloaded Fig6 differs:\n%s\nwant:\n%s", got, want)
	}
}

// sharedRecords runs the shared leg of every workload of a runner
// built from opts and returns the results as darco.Records, the form
// darco-suite -json hands to darco-figs -from.
func sharedRecords(t *testing.T, opts Options) []darco.Record {
	t.Helper()
	a, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := a.runModes(timing.ModeShared)
	if err != nil {
		t.Fatal(err)
	}
	var recs []darco.Record
	for _, w := range ws {
		recs = append(recs, darco.NewRecord(w[0].Name, w[0].Suite, opts.Scale, timing.ModeShared, w[0].Result, nil))
	}
	return recs
}

// TestPreloadServesOnlyMatchingCCLegs: records carry no configuration,
// so they are filed under the key of the base-configuration cell. In
// the cache-pressure sweep that is each benchmark's unbounded
// baseline; every bounded leg misses and simulates.
func TestPreloadServesOnlyMatchingCCLegs(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	opts.Benchmarks = []string{"470.lbm", "400.perlbench"}
	opts.Config.TOL.Cosim = false
	opts.Preload = sharedRecords(t, opts)
	var log bytes.Buffer
	opts.Log = &log
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.FigCC([]int{0, 512}); err != nil {
		t.Fatal(err)
	}
	bounded := len(opts.Benchmarks) * len(tol.RegisteredEvictionPolicies())
	if n := countRuns(log.String()); n != bounded {
		t.Errorf("FigCC simulated %d jobs, want the %d bounded legs only:\n%s", n, bounded, log.String())
	}
}

// TestPreloadNeverServesOtherSources: a record names a benchmark, not
// a program, so an RV32I port or a trace: replay that shares the
// catalog name is simulated rather than served the record. Under an
// rv32 pin the synthetic reference is preloaded under its x86 key but
// the grid runs the port, which only the key tells apart; the trace is
// never preloaded at all.
func TestPreloadNeverServesOtherSources(t *testing.T) {
	spec, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "mcf.trace.json")
	if err := workload.RecordTrace(trace, workload.SpecProgram{Spec: spec.Scale(0.05)}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ref, isa string
		scale    float64 // traces are fixed images: they only run at scale 1
	}{
		{"synthetic:429.mcf", "rv32", 0.05},
		{"trace:" + trace, "", 1},
	} {
		opts := DefaultOptions()
		opts.Scale = tc.scale
		opts.Config.TOL.Cosim = false
		opts.Benchmarks = []string{"429.mcf"}
		recs := sharedRecords(t, opts)
		opts.Benchmarks = []string{tc.ref}
		opts.Config.ISA = tc.isa
		opts.Preload = recs
		var log bytes.Buffer
		opts.Log = &log
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.progs[0].Name() != recs[0].Benchmark {
			t.Fatalf("%s is named %q, not like the record %q", tc.ref, r.progs[0].Name(), recs[0].Benchmark)
		}
		if _, err := r.runModes(timing.ModeShared); err != nil {
			t.Fatal(err)
		}
		if n := countRuns(log.String()); n != 1 {
			t.Errorf("%s: simulated %d jobs, want 1 (the record must not stand in):\n%s", tc.ref, n, log.String())
		}
	}
}
