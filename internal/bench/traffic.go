package bench

import (
	"fmt"
	"io"

	"alewife/internal/apps"
	"alewife/internal/core"
	"alewife/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "traffic",
		Title: "Mechanism usage: coherence vs message traffic per workload (extension)",
		Run:   runTraffic,
		Grid:  32,
	})
}

// runTraffic runs the same workloads under both runtimes and prints what
// actually moved: coherence-protocol messages, invalidations, explicit
// messages, DMA words, interrupt-stolen cycles. The hybrid runtime's whole
// point is visible here — scheduling and bulk data leave the coherence
// protocol and become explicit messages.
func runTraffic(cfg Config, w io.Writer) {
	type workload struct {
		name string
		run  func(rt *core.RT)
	}
	workloads := []workload{
		{"grain d9 l=100", func(rt *core.RT) { apps.GrainParallel(rt, 9, 100) }},
		{"jacobi 32x32 x5", func(rt *core.RT) { apps.Jacobi(rt, 32, 5) }},
	}
	counters := []struct {
		label string
		key   stats.ID
	}{
		{"coherence msgs", stats.ProtoMsgs},
		{"invalidation rounds", stats.ProtoInvals},
		{"explicit msgs", stats.MsgsSent},
		{"DMA words", stats.DMAWords},
		{"cache misses", stats.CacheMisses},
		{"stolen cycles", stats.IntStolenCycles},
		{"idle cycles", stats.IdleCycles},
		{"lock acquisitions", stats.LockAcquisitions},
		{"tasks stolen", stats.ThreadsStolen},
	}
	for _, wl := range workloads {
		smRT := newRT(cfg, cfg.Nodes, core.ModeSharedMemory)
		wl.run(smRT)
		hyRT := newRT(cfg, cfg.Nodes, core.ModeHybrid)
		wl.run(hyRT)
		fmt.Fprintf(w, "%s on %d processors\n", wl.name, cfg.Nodes)
		fmt.Fprintf(w, "  %-22s %14s %14s\n", "counter", "shared-memory", "hybrid")
		for _, c := range counters {
			fmt.Fprintf(w, "  %-22s %14d %14d\n", c.label,
				smRT.M.St.Global.Get(c.key), hyRT.M.St.Global.Get(c.key))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "the hybrid runtime trades coherence transactions and lock traffic for")
	fmt.Fprintln(w, "explicit messages and handler time — the integration the paper argues for.")
}
