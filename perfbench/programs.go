package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/emu"
	"repro/internal/guest"
	"repro/internal/workload"
)

// refBudget bounds each independent reference run; every program the
// benchmark uses retires far fewer guest instructions.
const refBudget = 10_000_000_000

// program is one resolved, scaled and built workload program together
// with the outcome of an independent reference run on the authoritative
// emulator, which every simulated run of it must reproduce.
type program struct {
	ref   string
	scale float64
	prog  workload.Program
	image *guest.Program

	// wantFinal and wantInsts are the reference run's final guest state
	// and retired-instruction count.
	wantFinal guest.State
	wantInsts uint64
}

// resolve opens, scales and builds a workload reference and runs the
// reference emulator on it, recording "workload.build" and "emu.ref"
// spans.
func resolve(t *tracer, ref string, scale float64) (*program, error) {
	sp := t.start("workload.build", ref, 0)
	p, err := workload.Open(ref)
	if err == nil {
		p, err = workload.ScaleProgram(p, scale)
	}
	var img *guest.Program
	if err == nil {
		img, err = p.Build()
	}
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("resolve %s: %w", ref, err)
	}
	sp = t.start("emu.ref", ref, 0)
	e := emu.New(img)
	err = e.Run(refBudget)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", ref, err)
	}
	return &program{ref: ref, scale: scale, prog: p, image: img, wantFinal: e.State, wantInsts: e.DynInsts}, nil
}

// resolveAll resolves every reference at one scale.
func resolveAll(t *tracer, refs []string, scale float64) ([]*program, error) {
	out := make([]*program, len(refs))
	for i, ref := range refs {
		p, err := resolve(t, ref, scale)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// check compares a simulated run's final guest state and retired guest
// instructions with the reference run.
func (p *program) check(final *guest.State, insts uint64) error {
	if insts != p.wantInsts {
		return fmt.Errorf("%s: retired %d guest instructions, reference retired %d", p.ref, insts, p.wantInsts)
	}
	if !final.Equal(&p.wantFinal) {
		return fmt.Errorf("%s: final guest state differs from the reference: %s", p.ref, p.wantFinal.Diff(final))
	}
	return nil
}

// digest hashes the JSON form of simulated statistics. Equal digests
// across passes and runs of the same code and seed are the determinism
// check; the value is printed for comparison across commits.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16], nil
}

// addSim records one simulated job: its simulated cycles and a digest
// of its statistics.
func (r *passResult) addSim(job string, cycles uint64, stats any) error {
	d, err := digest(stats)
	if err != nil {
		return err
	}
	if r.sims == nil {
		r.sims = map[string]simStat{}
	}
	if _, dup := r.sims[job]; dup {
		return fmt.Errorf("job %s simulated twice in one pass", job)
	}
	r.sims[job] = simStat{Cycles: cycles, Digest: d}
	return nil
}
