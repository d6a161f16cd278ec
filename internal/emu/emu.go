// Package emu implements the reference component of the simulation
// infrastructure: a functional emulator of the guest ISA that
// maintains the authoritative architectural state and memory image.
// The co-design component is verified against it by co-simulation —
// the state checking at translation boundaries the paper describes.
//
// The emulator is ISA-agnostic: it executes whatever frontend the
// loaded program names (guest.ISAOf), through the frontend's decode
// hook and the shared step semantics.
package emu

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/mem"
)

// Emulator is the authoritative guest-ISA functional emulator.
type Emulator struct {
	State guest.State
	Mem   *mem.Sparse

	// ISA is the guest frontend being emulated.
	ISA *guest.ISA

	// dec memoizes fetch+decode per EIP; guest code is immutable once
	// loaded, so the authoritative semantics are unchanged.
	dec *guest.DecodeCache

	// Statistics over the authoritative execution.
	DynInsts     uint64
	DynBranches  uint64
	DynIndirect  uint64
	DynMemOps    uint64
	DynFP        uint64
	Halted       bool
	TakenTargets map[uint32]uint64 // indirect-branch target histogram (optional)
}

// New creates an emulator with the program loaded and registers
// initialized per the program's frontend. An unregistered Program.ISA
// panics, matching guest.Program.LoadInto.
func New(p *guest.Program) *Emulator {
	isa, err := guest.ISAOf(p)
	if err != nil {
		panic(err)
	}
	e := &Emulator{Mem: mem.NewSparse(), ISA: isa, dec: guest.NewDecodeCache(isa)}
	e.State = p.LoadInto(e.Mem)
	return e
}

// Step executes a single guest instruction, updating statistics.
func (e *Emulator) Step() (guest.StepResult, error) {
	if e.Halted {
		return guest.StepResult{Halted: true}, nil
	}
	// Lazy init keeps hand-rolled (non-New) Emulator values working as
	// x86 machines, as they did before the decode cache and the second
	// frontend existed; New pre-populates both fields so neither
	// branch fires on the cosim path.
	if e.ISA == nil {
		e.ISA = guest.X86
	}
	if e.dec == nil {
		e.dec = guest.NewDecodeCache(e.ISA)
	}
	var res guest.StepResult
	if err := e.dec.Step(&e.State, e.Mem, &res); err != nil {
		return res, err
	}
	if res.Halted {
		e.Halted = true
		return res, nil
	}
	e.DynInsts++
	if res.Inst.IsBranch() {
		e.DynBranches++
		if res.Inst.IsIndirectBranch() {
			e.DynIndirect++
			if e.TakenTargets != nil {
				e.TakenTargets[res.Target]++
			}
		}
	}
	if res.Inst.IsMemAccess() {
		e.DynMemOps++
	}
	if res.Inst.IsFP() {
		e.DynFP++
	}
	return res, nil
}

// StepN executes up to n instructions or until halt, returning the
// number actually executed.
func (e *Emulator) StepN(n uint64) (uint64, error) {
	var done uint64
	for done < n && !e.Halted {
		if _, err := e.Step(); err != nil {
			return done, err
		}
		if e.Halted {
			break
		}
		done++
	}
	return done, nil
}

// Run executes until halt or the instruction budget is exhausted.
func (e *Emulator) Run(budget uint64) error {
	for !e.Halted {
		if e.DynInsts >= budget {
			return fmt.Errorf("emu: budget of %d instructions exhausted at eip=%#x", budget, e.State.EIP)
		}
		if _, err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}
