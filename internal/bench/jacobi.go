package bench

import (
	"fmt"
	"io"
	"math"

	"alewife/internal/apps"
	"alewife/internal/core"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Jacobi SOR cycles/iteration, SM vs MP border exchange (Section 4.6, Figure 11)",
		Run:   runFig11,
		Grid:  32,
	})
}

func runFig11(cfg Config, w io.Writer) {
	grids := []int{32, 64, 128}
	if cfg.Quick {
		grids = []int{32, 64}
	}
	iters := 10
	fmt.Fprintf(w, "jacobi on %d processors, %d iterations\n", cfg.Nodes, iters)
	t := NewTable("fig11", "grid", "sm_cycles_per_iter", "mp_cycles_per_iter", "mp_over_sm")
	for _, g := range grids {
		want := apps.JacobiReference(g, iters)
		sm := apps.Jacobi(newRT(cfg, cfg.Nodes, core.ModeSharedMemory), g, iters)
		mp := apps.Jacobi(newRT(cfg, cfg.Nodes, core.ModeHybrid), g, iters)
		if math.Abs(sm.Checksum-want) > 1e-6 || math.Abs(mp.Checksum-want) > 1e-6 {
			panic("bench: jacobi checksum mismatch")
		}
		t.Add(g, sm.CyclesPerIter, mp.CyclesPerIter,
			float64(mp.CyclesPerIter)/float64(sm.CyclesPerIter))
	}
	t.Note("paper: SM slightly ahead at 32x32; MP slightly ahead at 128x128")
	t.Emit(cfg, w)
}
