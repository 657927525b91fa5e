package bench

import (
	"fmt"
	"io"

	"alewife/internal/apps"
	"alewife/internal/core"
)

// Experiments for the remaining two "defects of shared-memory" the paper
// enumerates in Section 2.2 but does not give a dedicated figure: known
// communication patterns (all-to-all transpose) and combining
// synchronization with data transfer (producer-consumer handoff). Remote
// thread invocation (Section 4.3) is the paper's own instance of the
// latter; these experiments isolate the mechanisms.

func init() {
	register(Experiment{
		ID:       "prodcons",
		Title:    "Producer-consumer handoff: flag+data vs one message (Section 2.2 defect 3)",
		Run:      runProdCons,
		MinNodes: 2,
	})
	register(Experiment{
		ID:    "transpose",
		Title: "All-to-all transpose: known pattern via SM pulls vs MP pushes (Section 2.2 defect 2)",
		Run:   runTranspose,
	})
}

func runProdCons(cfg Config, w io.Writer) {
	sizes := []uint64{2, 8, 32, 128, 512}
	if cfg.Quick {
		sizes = []uint64{8, 128}
	}
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "words", "SM cycles", "MP cycles", "SM/MP")
	for _, words := range sizes {
		sm := apps.ProdConsSM(newMachine(cfg, cfg.Nodes), words)
		mp := apps.ProdConsMP(newRT(cfg, cfg.Nodes, core.ModeHybrid), words)
		if sm.Sum != mp.Sum || sm.Sum != words*(words+1)/2 {
			panic("bench: prodcons checksum mismatch")
		}
		fmt.Fprintf(w, "%-8d %14d %14d %10.2f\n",
			words, sm.Cycles, mp.Cycles, float64(sm.Cycles)/float64(mp.Cycles))
	}
	fmt.Fprintln(w, "bundling the signal with the data removes the consumer's per-line misses")
}

func runTranspose(cfg Config, w io.Writer) {
	nodes := cfg.Nodes
	if nodes > 16 {
		nodes = 16 // n^2 blocks; keep the sweep tractable
	}
	sizes := []uint64{4, 16, 64, 256}
	if cfg.Quick {
		sizes = []uint64{4, 64}
	}
	fmt.Fprintf(w, "all-to-all on %d nodes (block words per pair)\n", nodes)
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "words", "SM cycles", "MP cycles", "SM/MP")
	for _, words := range sizes {
		sm := apps.Transpose(newRT(cfg, nodes, core.ModeSharedMemory), words)
		mp := apps.Transpose(newRT(cfg, nodes, core.ModeHybrid), words)
		fmt.Fprintf(w, "%-8d %14d %14d %10.2f\n",
			words, sm.Cycles, mp.Cycles, float64(sm.Cycles)/float64(mp.Cycles))
	}
	fmt.Fprintln(w, "messages win once blocks amortize the fixed send/handler cost (paper condition i)")
}
