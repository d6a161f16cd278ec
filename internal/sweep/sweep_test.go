package sweep

import (
	"context"
	"testing"

	"repro/internal/darco"
	"repro/internal/store"
)

// runGrid is the cheap two-workload × two-value grid the execution
// tests sweep: StreamBatch is a pure transport knob, so every cell is
// a real, distinct cache key while the simulations stay small.
func runTestGrid() *Grid {
	return &Grid{
		Name:      "exec",
		Workloads: []string{"462.libquantum", "429.mcf"},
		Scale:     0.1,
		Base:      &darco.Knobs{Mode: "shared"},
		Axes: []Axis{{Name: "batch", Values: []Value{
			{Name: "default"},
			{Name: "256", Knobs: darco.Knobs{StreamBatch: 256}},
		}}},
		Baseline: map[string]string{"batch": "default"},
	}
}

// TestRunDeterministicAcrossWorkers pins grid determinism under
// parallelism: the aggregated table (and CSV) of a jobs=4 run is
// byte-identical to a sequential jobs=1 run.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	g := runTestGrid()
	seq, err := Run(context.Background(), g, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), g, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Table().String() != par.Table().String() {
		t.Fatalf("parallel table diverged:\njobs=1:\n%s\njobs=4:\n%s", seq.Table(), par.Table())
	}
	if seq.CSV() != par.CSV() {
		t.Fatal("parallel CSV diverged")
	}
	// The derived columns: the baseline cell's speedup is exactly 1,
	// and >1 workload produces one GEOMEAN row per coordinate tuple.
	tab := seq.Table()
	speedCol := len(tab.Headers) - 1
	if got := tab.Rows[0][speedCol]; got != "1.000" {
		t.Fatalf("baseline speedup = %q, want 1.000", got)
	}
	geo := 0
	for _, row := range tab.Rows {
		if row[0] == "GEOMEAN" {
			geo++
		}
	}
	if geo != 2 {
		t.Fatalf("GEOMEAN rows = %d, want one per coordinate tuple (2)", geo)
	}
}

// TestRunResumesFromStore pins resumability: a sweep interrupted after
// its first completed cell, re-run against the same store, serves that
// cell from the store (EventCached, no simulation) and only simulates
// the missing cells; a third run simulates nothing and reproduces the
// CSV byte-identically.
func TestRunResumesFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := runTestGrid()

	// Leg 1: sequential, cancelled from the first cell's Done event —
	// delivered before Run returns, so exactly one cell completes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs1, err := Run(ctx, g, Options{
		Jobs:       1,
		Sequential: true,
		Session: []darco.SessionOption{
			darco.WithStore(st),
			darco.WithEvents(func(ev darco.Event) {
				if ev.Kind == darco.EventDone {
					cancel()
				}
			}),
		},
	})
	if err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	if rs1 == nil {
		t.Fatal("cancelled sweep returned no result set")
	}
	var done1 int
	for _, row := range rs1.Rows {
		if row.Summary != nil {
			done1++
		}
	}
	if done1 != 1 {
		t.Fatalf("completed cells before cancel = %d, want 1", done1)
	}

	// Leg 2: fresh session, same store. The completed cell must be
	// served from the store; only the missing cells simulate.
	var started, cached int
	countEvents := darco.WithEvents(func(ev darco.Event) {
		switch ev.Kind {
		case darco.EventStarted:
			started++
		case darco.EventCached:
			cached++
		}
	})
	rs2, err := Run(context.Background(), g, Options{
		Jobs:    1,
		Session: []darco.SessionOption{darco.WithStore(st), countEvents},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(rs2.Rows)
	if cached != done1 || started != total-done1 {
		t.Fatalf("resume ran %d and cached %d of %d cells, want %d simulated / %d cached",
			started, cached, total, total-done1, done1)
	}
	if !rs2.Rows[0].Cached {
		t.Fatalf("first row not marked cached: %+v", rs2.Rows[0])
	}
	for _, row := range rs2.Rows {
		if row.Summary == nil {
			t.Fatalf("row %s/%v missing result after resume: %s", row.Workload, row.Coords, row.Error)
		}
	}

	// Leg 3: everything is stored now — zero simulation, identical CSV.
	started, cached = 0, 0
	rs3, err := Run(context.Background(), g, Options{
		Jobs:    1,
		Session: []darco.SessionOption{darco.WithStore(st), countEvents},
	})
	if err != nil {
		t.Fatal(err)
	}
	if started != 0 || cached != total {
		t.Fatalf("fully-stored sweep simulated %d cells (cached %d/%d)", started, cached, total)
	}
	if rs2.CSV() != rs3.CSV() {
		t.Fatalf("CSV not stable across a fully-cached re-run:\n%s\nvs:\n%s", rs2.CSV(), rs3.CSV())
	}
	for _, row := range rs3.Rows {
		if !row.Cached {
			t.Fatalf("row %s/%v simulated on third run", row.Workload, row.Coords)
		}
	}
}

// TestRunOnShards pins the shard partition: 0/2 and 1/2 are disjoint
// and their union is the full cell set.
func TestRunOnShards(t *testing.T) {
	g := runTestGrid()
	sess := darco.NewSession(darco.WithWorkers(2))
	full, err := RunOn(context.Background(), sess, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for s := 0; s < 2; s++ {
		rs, err := RunOn(context.Background(), sess, g, Options{Shard: s, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rs.Rows {
			seen[row.Key]++
			if !row.Cached {
				t.Fatalf("shard %d re-simulated %s/%v", s, row.Workload, row.Coords)
			}
		}
	}
	if len(seen) != len(full.Rows) {
		t.Fatalf("shards covered %d distinct cells, want %d", len(seen), len(full.Rows))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s ran in %d shards", key, n)
		}
	}
	if _, err := RunOn(context.Background(), sess, g, Options{Shard: 2, Shards: 2}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}
