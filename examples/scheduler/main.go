// Scheduler: dynamic, irregular parallelism under the two runtime
// flavours. An adaptive quadrature (the paper's aq application) spawns an
// unpredictable task tree; the hybrid scheduler's message-based stealing,
// task migration and wake-ups beat the shared-memory-only scheduler, most
// of all when tasks are small (Figures 9 and 10).
package main

import (
	"flag"
	"fmt"

	"alewife"
	"alewife/internal/apps"
	"alewife/internal/machine"
)

func main() {
	nodes := flag.Int("nodes", 16, "processors")
	flag.Parse()

	fmt.Printf("adaptive quadrature on %d processors\n\n", *nodes)
	fmt.Printf("%-10s %10s %12s | %12s %12s %8s\n",
		"tolerance", "cells", "seq ms", "SM speedup", "hyb speedup", "hyb/SM")
	for _, tol := range []float64{0.05, 0.02, 0.008} {
		seq := apps.AQSequential(alewife.NewMachine(1), tol)
		sm := apps.AQParallel(alewife.NewRuntime(alewife.NewMachine(*nodes), alewife.SharedMemory), tol)
		hy := apps.AQParallel(alewife.NewRuntime(alewife.NewMachine(*nodes), alewife.Hybrid), tol)
		if d := sm.Integral - hy.Integral; d > 1e-9 || d < -1e-9 {
			panic("schedulers disagree on the integral")
		}
		spSM := float64(seq.Cycles) / float64(sm.Cycles)
		spHy := float64(seq.Cycles) / float64(hy.Cycles)
		fmt.Printf("%-10.3g %10d %12.2f | %12.1f %12.1f %8.2f\n",
			tol, seq.Cells, float64(seq.Cycles)/(machine.ClockMHz*1000), spSM, spHy, spHy/spSM)
	}
	fmt.Println("\nthe hybrid advantage shrinks as task grain grows — exactly the")
	fmt.Println("paper's observation: overhead matters most when work is fine-grained.")
}
