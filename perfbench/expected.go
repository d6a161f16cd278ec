package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// simStat is the simulated outcome of one job: its simulated cycles
// (EstCycles for a sampled run) and a digest of its simulated
// statistics.
type simStat struct {
	Cycles uint64 `json:"sim_cycles"`
	Digest string `json:"digest"`
}

// expectedPath is expected.json's path from the checkout's root.
const expectedPath = "perfbench/expected.json"

// expectedJSON holds, per workload and job, the simStat the simulator
// produced when the file was last written. Every run compares its jobs
// with it, so a change to the simulated model fails the benchmark until
// the file is rewritten (-write-expected) and the new figures are
// committed with the change that made them.
//
//go:embed expected.json
var expectedJSON []byte

type expectations map[string]map[string]simStat

func parseExpected(raw []byte) (expectations, error) {
	exp := expectations{}
	if err := json.Unmarshal(raw, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return exp, nil
}

// checkExpected compares a pass's jobs with the expected figures of the
// workload. A job with no entry (a fuzz program of a seed the file does
// not list) is not compared; checked counts the jobs that were.
func checkExpected(workload string, sims map[string]simStat) (checked int, err error) {
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		return 0, err
	}
	for _, job := range sortedKeys(sims) {
		want, ok := exp[workload][job]
		if !ok {
			continue
		}
		if got := sims[job]; got != want {
			return checked, fmt.Errorf("%s %s: simulated %d cycles (statistics digest %s), %s expects %d (%s); "+
				"a change meant to alter the simulated model rewrites that file with -write-expected: %w",
				workload, job, got.Cycles, got.Digest, expectedPath, want.Cycles, want.Digest, errIncorrect)
		}
		checked++
	}
	return checked, nil
}

// writeExpected merges a pass's jobs into expected.json under the
// workload, replacing the entries of those jobs.
func writeExpected(workload string, sims map[string]simStat) error {
	raw, err := os.ReadFile(expectedPath)
	if err != nil {
		return err
	}
	exp, err := parseExpected(raw)
	if err != nil {
		return err
	}
	if exp[workload] == nil {
		exp[workload] = map[string]simStat{}
	}
	for job, s := range sims {
		exp[workload][job] = s
	}
	out, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(out, '\n'), 0o644)
}
