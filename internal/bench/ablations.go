package bench

import (
	"fmt"
	"io"

	"alewife/internal/apps"
	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// Ablation experiments beyond the paper: vary one design parameter the
// paper's argument rests on and watch the experiment respond.

func init() {
	register(Experiment{
		ID:       "ablate-limitless",
		Title:    "LimitLESS hardware-pointer count vs widely shared data (extension)",
		Run:      runAblateLimitless,
		MinNodes: 2,
	})
	register(Experiment{
		ID:             "ablate-steal",
		Title:          "Steal-policy ablation on grain (extension)",
		Run:            runAblateSteal,
		LivelocksOnTwo: true,
	})
	register(Experiment{
		ID:       "ablate-network",
		Title:    "Network latency sensitivity of barrier and copy (extension)",
		Run:      runAblateNetwork,
		MinNodes: 2,
	})
	register(Experiment{
		ID:       "ablate-prefetch",
		Title:    "Prefetch-distance ablation on accum (extension)",
		Run:      runAblatePrefetch,
		MinNodes: 2,
	})
}

// runAblateLimitless reads one hot line from every node, then writes it,
// for various hardware-pointer counts: fewer pointers mean earlier
// software overflow and costlier invalidation rounds at the home.
func runAblateLimitless(cfg Config, w io.Writer) {
	nodes := cfg.Nodes
	fmt.Fprintf(w, "%d nodes read one line, then node 1 writes it\n", nodes)
	fmt.Fprintf(w, "%-12s %14s %16s %16s\n", "hw pointers", "write cycles", "sw trap cycles", "overflows")
	for _, k := range []int{1, 2, 5, 8, 16, 64} {
		mcfg := machCfg(cfg, nodes)
		mcfg.HWPointers = k
		m := machine.New(mcfg)
		hot := m.Store.AllocOn(0, mem.LineWords)
		for i := 0; i < nodes; i++ {
			i := i
			m.Spawn(i, sim.Time(i), "reader", func(p *machine.Proc) {
				p.Read(hot)
			})
		}
		var writeCycles uint64
		m.Spawn(1, 20000, "writer", func(p *machine.Proc) {
			p.Flush()
			s := p.Ctx.Now()
			p.Write(hot, 1)
			p.Flush()
			writeCycles = p.Ctx.Now() - s
		})
		m.Run()
		fmt.Fprintf(w, "%-12d %14d %16d %16d\n", k, writeCycles,
			m.St.Global.Get(stats.DirSWTrapCycles), m.St.Global.Get(stats.DirOverflows))
	}
	fmt.Fprintln(w, "(k >= nodes behaves like a full-map directory)")
}

func runAblateSteal(cfg Config, w io.Writer) {
	depth := grainDepth(cfg.Quick)
	fmt.Fprintf(w, "grain depth %d, l=0, %d processors (cycles; lower is better)\n",
		depth, cfg.Nodes)
	fmt.Fprintf(w, "%-10s %16s %16s\n", "policy", "SM cycles", "hybrid cycles")
	for _, pol := range []core.StealPolicy{core.StealRandom, core.StealScan} {
		name := "random"
		if pol == core.StealScan {
			name = "scan"
		}
		var cyc [2]uint64
		for i, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
			rt := core.New(newMachine(cfg, cfg.Nodes), mode, pol)
			r := apps.GrainParallel(rt, depth, 0)
			cyc[i] = r.Cycles
		}
		fmt.Fprintf(w, "%-10s %16d %16d\n", name, cyc[0], cyc[1])
	}
}

// runAblateNetwork scales the per-hop router delay: message mechanisms
// pay per packet, shared-memory per coherence transaction, so the barrier
// gap should widen with a slower network.
func runAblateNetwork(cfg Config, w io.Writer) {
	fmt.Fprintf(w, "barrier at %d procs and 1KB copy, vs per-hop router delay\n", cfg.Nodes)
	fmt.Fprintf(w, "%-12s %10s %10s | %12s %12s\n",
		"router delay", "SM barrier", "MP barrier", "SM copy", "MP copy")
	for _, d := range []uint64{1, 4, 16} {
		mk := func(mode core.Mode) *core.RT {
			mcfg := machCfg(cfg, cfg.Nodes)
			mcfg.Net.RouterDelay = d
			return core.NewDefault(machine.New(mcfg), mode)
		}
		smBar := barrierCyclesRT(mk(core.ModeSharedMemory))
		mpBar := barrierCyclesRT(mk(core.ModeHybrid))

		copyCycles := func(kind apps.CopyKind) uint64 {
			mcfg := machCfg(cfg, cfg.Nodes)
			mcfg.Net.RouterDelay = d
			rt := core.NewDefault(machine.New(mcfg), core.ModeHybrid)
			return apps.Memcpy(rt, 1, 1024, kind).Cycles
		}
		fmt.Fprintf(w, "%-12d %10d %10d | %12d %12d\n", d,
			smBar, mpBar, copyCycles(apps.CopyNoPrefetch), copyCycles(apps.CopyMessage))
	}
}

// barrierCyclesRT measures steady-state barrier cost on a prebuilt runtime.
func barrierCyclesRT(rt *core.RT) uint64 {
	const warm, meas = 2, 6
	var start, end uint64
	rt.SPMD(func(p *machine.Proc) {
		for i := 0; i < warm; i++ {
			rt.Barrier().Sync(p)
		}
		p.Flush()
		if p.ID() == 0 {
			start = p.Ctx.Now()
		}
		for i := 0; i < meas; i++ {
			rt.Barrier().Sync(p)
		}
		p.Flush()
		if p.ID() == 0 && p.Ctx.Now() > end {
			end = p.Ctx.Now()
		}
	})
	return (end - start) / meas
}

// runAblatePrefetch sweeps the prefetch distance of an accum-style loop:
// one outstanding prefetch cannot hide a remote miss under a couple of
// cycles of work per word; Alewife's 4-deep transaction buffer nearly can.
func runAblatePrefetch(cfg Config, w io.Writer) {
	const words = 512
	fmt.Fprintf(w, "sum %d remote words, prefetch distance sweep\n", words)
	fmt.Fprintf(w, "%-10s %12s %14s\n", "distance", "cycles", "vs no-prefetch")
	base := accumDistance(cfg, cfg.Nodes, words, 0)
	fmt.Fprintf(w, "%-10d %12d %14s\n", 0, base, "1.00")
	for _, dist := range []int{1, 2, 4, 8} {
		c := accumDistance(cfg, cfg.Nodes, words, dist)
		fmt.Fprintf(w, "%-10d %12d %14.2f\n", dist, c, float64(base)/float64(c))
	}
}

// accumDistance is AccumSM with a configurable prefetch distance (0 = no
// prefetching).
func accumDistance(cfg Config, nodes int, words uint64, dist int) uint64 {
	m := newMachine(cfg, nodes)
	arr := m.Store.AllocOn(1, words)
	var cycles uint64
	m.Spawn(0, 0, "accum", func(p *machine.Proc) {
		p.Flush()
		start := p.Ctx.Now()
		var sum uint64
		for i := uint64(0); i < words; i++ {
			if dist > 0 && i%mem.LineWords == 0 {
				ahead := i + uint64(dist)*mem.LineWords
				if ahead < words {
					p.Prefetch(arr+mem.Addr(ahead), false)
				}
			}
			sum += p.Read(arr + mem.Addr(i))
			p.Elapse(apps.AccumAddCycles)
		}
		p.Flush()
		cycles = p.Ctx.Now() - start
	})
	m.Run()
	return cycles
}

// meshOrIdeal is referenced by the network ablation docs; keep the ideal
// network exercised so it cannot rot.
var _ mesh.Network = (*mesh.Ideal)(nil)
