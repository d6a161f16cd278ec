package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as darco-figs, so a test can run
// the command with real flags and observe its exit status.
const runMainEnv = "DARCO_FIGS_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusedCommandLines: every flag a -grid run would drop, an
// unknown -fig and a -shard without -grid exit 2 with a diagnostic
// before anything is simulated or read.
func TestRefusedCommandLines(t *testing.T) {
	grid := []string{"-grid", "examples/grids/smoke.json"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"grid fig", append(grid, "-fig", "6"), "-fig cannot be combined with -grid"},
		{"grid from", append(grid, "-from", "/nonexistent.json"), "-from cannot be combined with -grid"},
		{"grid benchmarks", append(grid, "-benchmarks", "bogus"), "-benchmarks cannot be combined with -grid"},
		{"grid workload", append(grid, "-workload", "synthetic:470.lbm"), "-workload cannot be combined with -grid"},
		{"grid phases", append(grid, "-phases", "3"), "-phases cannot be combined with -grid"},
		{"grid phase-cap", append(grid, "-phase-cap", "512"), "-phase-cap cannot be combined with -grid"},
		{"grid two flags", append(grid, "-fig", "all", "-benchmarks", "bogus"), "-benchmarks, -fig cannot be combined with -grid"},
		{"unknown fig", []string{"-fig", "12"}, `unknown -fig "12" (valid: all, 5, 5a, 5b, 6, 7, 7b, 8, 9, 10, 11, cc, phase, sample)`},
		{"shard without grid", []string{"-shard", "0/2"}, "-shard only applies to -grid sweeps"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2 (stderr %q)", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
		})
	}
}
