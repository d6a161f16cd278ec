package serve

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/sample"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// TestKnobSurfacesAgree builds each knob delta three ways — as a
// command line parsed through darco.Knobs.RegisterFlags, as a grid
// cell through sweep.JobFor and as a serve submission — and requires
// all three to file the job under the memo key of a configuration
// built by hand from the base. A delta with no command-line spelling
// (args nil) skips that leg.
func TestKnobSurfacesAgree(t *testing.T) {
	const scale = 0.05
	bounded := darco.DefaultConfig()
	bounded.TOL.Cache = tol.CacheConfig{CapacityInsts: 4096, Policy: "lru-translation"}
	sampled := darco.DefaultConfig()
	sampled.Sampling = &sample.Config{Interval: 20_000, Every: 4, Warmup: 2_000}

	cases := []struct {
		name  string
		base  darco.Config
		ref   string
		args  []string
		knobs string // darco.Knobs JSON, as a grid value or submission carries it
		// want builds the expected configuration from the base;
		// wantRef is the expected workload reference ("" = ref).
		want    func(c *darco.Config)
		wantRef string
	}{
		{
			name: "sentinels leave the config unchanged",
			base: bounded, ref: "462.libquantum",
			args:  []string{"-O", "-1", "-cc-size", "0", "-sample", "0", "-interval", "0", "-warmup", "0"},
			knobs: `{}`,
			want:  func(c *darco.Config) {},
		},
		{
			name: "sentinels leave a sampled base unchanged",
			base: sampled, ref: "462.libquantum",
			args:  []string{"-warmup", "0"},
			knobs: `{}`,
			want:  func(c *darco.Config) {},
		},
		{
			name: "warmup 0 with a plan means the default warm-up",
			base: darco.DefaultConfig(), ref: "462.libquantum",
			args:  []string{"-sample", "4", "-warmup", "0"},
			knobs: `{"sample": {"every": 4}}`,
			want: func(c *darco.Config) {
				c.Sampling = &sample.Config{Interval: sample.DefaultConfig().Interval, Every: 4, Warmup: sample.DefaultConfig().Warmup}
			},
		},
		{
			name: "explicit cc_size 0 restores the unbounded cache",
			base: bounded, ref: "462.libquantum",
			knobs: `{"cc_size": 0}`,
			want:  func(c *darco.Config) { c.TOL.Cache = tol.CacheConfig{} },
		},
		{
			name: "isa redirects the catalog reference",
			base: darco.DefaultConfig(), ref: "429.mcf",
			args:    []string{"-isa", "rv32"},
			knobs:   `{"isa": "rv32"}`,
			want:    func(c *darco.Config) { c.ISA = "rv32" },
			wantRef: "rv32:429.mcf",
		},
		{
			name: "pipeline preset, passes and promotion",
			base: darco.DefaultConfig(), ref: "429.mcf",
			args:  []string{"-O", "1", "-passes", "constprop,dce", "-promote", "adaptive"},
			knobs: `{"opt_level": 1, "passes": "constprop,dce", "promote": "adaptive"}`,
			want: func(c *darco.Config) {
				c.TOL.EnableSBM = true
				c.TOL.OptLevel = ""
				c.TOL.Passes = "constprop,dce"
				c.TOL.Promotion = "adaptive"
			},
		},
		{
			name: "O0 disables SBM",
			base: darco.DefaultConfig(), ref: "429.mcf",
			args:  []string{"-O", "0"},
			knobs: `{"opt_level": 0}`,
			want: func(c *darco.Config) {
				c.TOL.EnableSBM = false
				c.TOL.OptLevel = "O0"
				c.TOL.Passes = ""
			},
		},
		{
			name: "bounded cache",
			base: darco.DefaultConfig(), ref: "470.lbm",
			args:  []string{"-cc-size", "512", "-cc-policy", "fifo-region"},
			knobs: `{"cc_size": 512, "cc_policy": "fifo-region"}`,
			want:  func(c *darco.Config) { c.TOL.Cache = tol.CacheConfig{CapacityInsts: 512, Policy: "fifo-region"} },
		},
		{
			name: "sampling plan",
			base: darco.DefaultConfig(), ref: "470.lbm",
			args:  []string{"-sample", "4", "-interval", "20000", "-warmup", "2000"},
			knobs: `{"sample": {"every": 4, "interval": 20000, "warmup": 2000}}`,
			want:  func(c *darco.Config) { c.Sampling = &sample.Config{Interval: 20_000, Every: 4, Warmup: 2_000} },
		},
		{
			name: "mode and cosim",
			base: darco.DefaultConfig(), ref: "470.lbm",
			args:  []string{"-mode", "tol-only", "-cosim=false"},
			knobs: `{"mode": "tol-only", "cosim": false}`,
			want: func(c *darco.Config) {
				c.Mode = timing.ModeTOLOnly
				c.TOL.Cosim = false
			},
		},
	}

	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.base
			tc.want(&want)
			wantRef := tc.wantRef
			if wantRef == "" {
				wantRef = tc.ref
			}
			wantKey := jobKey(t, wantRef, scale, want)

			var k darco.Knobs
			dec := json.NewDecoder(strings.NewReader(tc.knobs))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&k); err != nil {
				t.Fatal(err)
			}

			if tc.args != nil {
				cfg, ref, err := commandLine(tc.base, tc.ref, tc.args)
				if err != nil {
					t.Fatalf("command line: %v", err)
				}
				if got := jobKey(t, ref, scale, cfg); got != wantKey {
					t.Errorf("command line key %s, want %s", got, wantKey)
				}
			}

			ref := workload.RefForISA(tc.ref, want.ISA)
			p, err := workload.Open(ref)
			if err == nil {
				p, err = workload.ScaleProgram(p, scale)
			}
			if err != nil {
				t.Fatal(err)
			}
			j, err := sweep.JobFor(p, ref, scale, tc.base, &k)
			if err != nil {
				t.Fatalf("grid cell: %v", err)
			}
			if got, err := j.Key(); err != nil || got != wantKey {
				t.Errorf("grid cell key %s (%v), want %s", got, err, wantKey)
			}

			base := tc.base
			resp, err := c.Submit(ctx, SubmitRequest{Workload: tc.ref, Scale: scale, Config: &base, Knobs: k})
			if err != nil {
				t.Fatalf("submission: %v", err)
			}
			if resp.Key != wantKey {
				t.Errorf("submission key %s, want %s", resp.Key, wantKey)
			}
		})
	}

	// A contradictory delta is refused by every surface.
	if _, _, err := commandLine(darco.DefaultConfig(), "470.lbm", []string{"-O", "0", "-passes", "dce"}); err == nil {
		t.Error("command line accepted -O 0 with -passes")
	}
	bad := darco.Knobs{OptLevel: new(int), Passes: "dce"}
	p, err := workload.Open("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.JobFor(p, "470.lbm", 1, darco.DefaultConfig(), &bad); err == nil {
		t.Error("grid cell accepted opt_level 0 with passes")
	}
	var se *StatusError
	if _, err := c.Submit(ctx, SubmitRequest{Workload: "470.lbm", Knobs: bad}); !asStatus(err, &se) || se.Code != 400 {
		t.Errorf("submission with opt_level 0 and passes: err = %v, want 400", err)
	}
}

// commandLine resolves args the way the darco tools do: the shared knob
// flags plus -mode on a fresh flag set, folded into base and validated,
// with the workload reference redirected to the configured ISA.
func commandLine(base darco.Config, ref string, args []string) (darco.Config, string, error) {
	fs := flag.NewFlagSet("darco", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var k darco.Knobs
	k.RegisterFlags(fs)
	fs.StringVar(&k.Mode, "mode", timing.ModeShared.String(), "timing mode")
	if err := fs.Parse(args); err != nil {
		return base, "", err
	}
	cfg := base
	if err := k.Apply(&cfg); err != nil {
		return cfg, "", err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, "", err
	}
	return cfg, workload.RefForISA(ref, cfg.ISA), nil
}

// jobKey is the memo key of ref at scale under cfg.
func jobKey(t *testing.T, ref string, scale float64, cfg darco.Config) string {
	t.Helper()
	j, err := darco.WithWorkload(ref, scale, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}
