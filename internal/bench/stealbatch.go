package bench

import (
	"fmt"
	"io"

	"alewife/internal/apps"
	"alewife/internal/core"
)

func init() {
	register(Experiment{
		ID:             "ablate-stealbatch",
		Title:          "Steal-half batching: tasks per steal vs fine-grain performance (extension)",
		Run:            runAblateStealBatch,
		LivelocksOnTwo: true,
	})
}

// runAblateStealBatch sweeps how many tasks one steal migrates. Batching
// amortizes the migration cost (one message or one lock round for several
// tasks) against the risk of hoarding work an idle peer could have taken.
func runAblateStealBatch(cfg Config, w io.Writer) {
	depth := grainDepth(cfg.Quick)
	fmt.Fprintf(w, "grain depth %d, l=0, %d processors (total cycles; lower is better)\n",
		depth, cfg.Nodes)
	t := NewTable("ablate-stealbatch", "batch", "sm_cycles", "hybrid_cycles")
	for _, batch := range []int{1, 2, 4, 8} {
		var cyc [2]uint64
		for i, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
			p := core.DefaultParams()
			p.StealBatch = batch
			rt := core.New(newMachine(cfg, cfg.Nodes), mode, p, core.StealRandom)
			cyc[i] = apps.GrainParallel(rt, depth, 0).Cycles
		}
		t.Add(batch, cyc[0], cyc[1])
	}
	t.Note("steal-half caps at half the victim's queue; batch 1 is the paper's scheme.")
	t.Note("for divide-and-conquer trees batch 1 wins: the oldest task already owns")
	t.Note("half the remaining tree, so extra batching just hoards parallelism.")
	t.Emit(cfg, w)
}
