package bench

import (
	"fmt"
	"io"

	"alewife/internal/apps"
	"alewife/internal/core"
	"alewife/internal/machine"
)

func init() {
	register(Experiment{
		ID:    "reduce",
		Title: "Reducing combining tree: barrier+sum in one wave (extension)",
		Run:   runReduce,
		Grid:  16,
	})
}

func runReduce(cfg Config, w io.Writer) {
	// Microbenchmark: one global sum+barrier episode.
	episode := func(mode core.Mode) uint64 {
		rt := newRT(cfg, cfg.Nodes, mode)
		const warm, meas = 2, 6
		var start, end uint64
		rt.SPMD(func(p *machine.Proc) {
			for i := 0; i < warm; i++ {
				rt.Barrier().SyncReduce(p, 1)
			}
			p.Flush()
			if p.ID() == 0 {
				start = p.Ctx.Now()
			}
			for i := 0; i < meas; i++ {
				if rt.Barrier().SyncReduce(p, 1) != uint64(cfg.Nodes) {
					panic("bench: reduction wrong")
				}
			}
			p.Flush()
			if p.ID() == 0 {
				end = p.Ctx.Now()
			}
		})
		return (end - start) / meas
	}
	sm := episode(core.ModeSharedMemory)
	mp := episode(core.ModeHybrid)
	fmt.Fprintf(w, "global sum + barrier, %d procs: SM=%d cycles, MP=%d cycles (ratio %.2f)\n",
		cfg.Nodes, sm, mp, float64(sm)/float64(mp))

	// Application: jacobi iterating to convergence, reduction per iteration.
	grid := 16
	smj := apps.JacobiConverge(newRT(cfg, cfg.Nodes, core.ModeSharedMemory), grid, 0.01, 500)
	hyj := apps.JacobiConverge(newRT(cfg, cfg.Nodes, core.ModeHybrid), grid, 0.01, 500)
	fmt.Fprintf(w, "jacobi-until-converged %dx%d (%d iters): SM=%d cycles, MP=%d cycles (ratio %.2f)\n",
		grid, grid, smj.Iters, smj.Cycles, hyj.Cycles, float64(smj.Cycles)/float64(hyj.Cycles))
	fmt.Fprintln(w, "the reduction's data rides the barrier messages: sync + data in one wave")
}
