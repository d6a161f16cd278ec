package sweep

import (
	"context"
	"strings"
	"testing"

	"repro/internal/darco"
)

// TestISAAxis runs one benchmark name across a two-cell ISA axis: each
// cell must resolve the name through its own frontend's catalog, simulate
// genuinely different programs, and file the results under distinct
// store keys.
func TestISAAxis(t *testing.T) {
	g := &Grid{
		Name:      "isa-axis",
		Workloads: []string{"429.mcf"},
		Scale:     0.05,
		Axes: []Axis{
			{Name: "isa", Values: []Value{
				{Name: "x86", Knobs: darco.Knobs{ISA: "x86"}},
				{Name: "rv32", Knobs: darco.Knobs{ISA: "rv32"}},
			}},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rs, err := Run(context.Background(), g, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rs.Rows))
	}
	byVal := map[string]Row{}
	for _, r := range rs.Rows {
		if r.Error != "" {
			t.Fatalf("cell %v failed: %s", r.Coords, r.Error)
		}
		if r.Name != "429.mcf" {
			t.Fatalf("cell renamed the benchmark: %q", r.Name)
		}
		if r.Workload != "429.mcf" {
			t.Fatalf("report workload reference changed: %q (baseline matching would break)", r.Workload)
		}
		byVal[r.Coords[0].Value] = r
	}
	x86, rv := byVal["x86"], byVal["rv32"]
	if x86.Key == "" || x86.Key == rv.Key {
		t.Fatalf("ISA cells share store key %q", x86.Key)
	}
	if x86.Summary.GuestDyn == rv.Summary.GuestDyn && x86.Summary.Cycles == rv.Summary.Cycles {
		t.Fatal("x86 and rv32 cells produced identical results: the axis simulated one program twice")
	}
	// The aggregated table keeps one row per ISA value.
	tab := rs.Table().String()
	if !strings.Contains(tab, "rv32") || !strings.Contains(tab, "x86") {
		t.Fatalf("table lost an ISA coordinate:\n%s", tab)
	}
}
