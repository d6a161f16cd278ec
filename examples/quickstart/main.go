// Quickstart: build a tiny guest program with the guest.Builder API,
// run it through the full co-designed processor (TOL + timing
// simulator, with co-simulation against the authoritative emulator),
// and print where the time went.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/darco"
	"repro/internal/guest"
	"repro/internal/timing"
)

func main() {
	// A guest program: sum the first 100_000 integers.
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0) // sum
	b.MovRI(guest.ECX, 1) // i
	b.Label("loop")
	b.AddRR(guest.EAX, guest.ECX)
	b.Inc(guest.ECX)
	b.CmpRI(guest.ECX, 100_001)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Run it on the co-designed processor under the paper's default
	// configuration (co-simulation on). The context can cancel a long
	// simulation mid-flight; edit a darco.DefaultConfig() and call its
	// Run method to change the configuration.
	res, err := darco.Run(context.Background(), prog)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("result (eax)        = %d\n", res.Final.Regs[guest.EAX])
	fmt.Printf("guest instructions  = %d\n", res.GuestDyn())
	fmt.Printf("host instructions   = %d\n", res.Timing.TotalInsts())
	fmt.Printf("cycles              = %d (IPC %.2f)\n", res.Timing.Cycles, res.Timing.IPC())
	fmt.Printf("TOL overhead        = %.2f%%\n", 100*res.Timing.TOLShare())
	fmt.Printf("dyn IM/BBM/SBM      = %d / %d / %d\n",
		res.TOL.DynIM, res.TOL.DynBBM, res.TOL.DynSBM)
	fmt.Printf("translations        = %d BBs, %d superblocks\n",
		res.TOL.BBTranslated, res.TOL.SBCreated)
	fmt.Printf("cosim state checks  = %d (all passed)\n", res.TOL.CosimChecks)

	// The hot loop must have been promoted to an optimized superblock
	// that executes from the code cache without TOL involvement.
	if res.TOL.DynSBM < res.GuestDyn()*9/10 {
		log.Fatalf("expected SBM to dominate, got %d of %d", res.TOL.DynSBM, res.GuestDyn())
	}
	appShare := 100 * res.Timing.ComponentCycles(timing.CompApp) / float64(res.Timing.Cycles)
	fmt.Printf("application share   = %.2f%% of cycles\n", appShare)
}
