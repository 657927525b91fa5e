package bench

import (
	"fmt"
	"io"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/swdsm"
)

func init() {
	register(Experiment{
		ID:       "fig1",
		Title:    "Anatomy of a memory reference: hardware SM vs software-synthesized (Section 2.1, Figure 1)",
		Run:      runFig1,
		MinNodes: 2,
	})
}

// runFig1 measures the per-reference cost of the paper's Figure 1
// pseudocode executed in software over messages, against the same
// references on the hardware shared-memory fabric. This is the paper's
// core quantitative claim in Section 2.1: the software layer "adds
// significant overhead to every shared-address space reference, even when
// no communication is necessary."
func runFig1(cfg Config, w io.Writer) {
	measureHW := func(remote bool, second bool) uint64 {
		m := newMachine(cfg, cfg.Nodes)
		home := 0
		if remote {
			home = 1
		}
		a := m.Store.AllocOn(home, mem.LineWords)
		var cycles uint64
		m.Spawn(0, 0, "p", func(p *machine.Proc) {
			if second {
				p.Read(a)
			}
			p.Flush()
			s := p.Ctx.Now()
			p.Read(a)
			p.Flush()
			cycles = p.Ctx.Now() - s
		})
		m.Run()
		return cycles
	}
	measureSW := func(remote bool, second bool, noCache bool) uint64 {
		m := newMachine(cfg, cfg.Nodes)
		pp := swdsm.DefaultParams()
		pp.NoCache = noCache
		d := swdsm.New(m, pp)
		home := 0
		if remote {
			home = 1
		}
		a := m.Store.AllocOn(home, mem.LineWords)
		var cycles uint64
		m.Spawn(0, 0, "p", func(p *machine.Proc) {
			if second {
				d.Read(p, a)
			}
			p.Flush()
			s := p.Ctx.Now()
			d.Read(p, a)
			p.Flush()
			cycles = p.Ctx.Now() - s
		})
		m.Run()
		return cycles
	}

	type row3 struct {
		name       string
		hw, sw, un uint64
	}
	rows3 := []row3{
		{"local, first touch", measureHW(false, false), measureSW(false, false, false), measureSW(false, false, true)},
		{"local, cached", measureHW(false, true), measureSW(false, true, false), measureSW(false, true, true)},
		{"remote, first touch", measureHW(true, false), measureSW(true, false, false), measureSW(true, false, true)},
		{"remote, cached", measureHW(true, true), measureSW(true, true, false), measureSW(true, true, true)},
	}
	fmt.Fprintf(w, "cycles per load (node 0; home local or one hop away)\n")
	fmt.Fprintf(w, "%-22s %12s %14s %14s %8s\n",
		"reference", "hardware", "sw cached", "sw uncached", "sw/hw")
	for _, r := range rows3 {
		fmt.Fprintf(w, "%-22s %12d %14d %14d %8.1f\n",
			r.name, r.hw, r.sw, r.un, float64(r.sw)/float64(r.hw))
	}

	// A small dynamic workload: pointer-chase style random reads over a
	// shared table — the "dynamic application" of Section 2.1 where the
	// compiler can't help and every reference pays the software check.
	hwApp := chaseHW(cfg, cfg.Nodes)
	swApp := chaseSW(cfg, cfg.Nodes)
	fmt.Fprintf(w, "\nrandom shared-table walk (1024 dependent reads):\n")
	fmt.Fprintf(w, "hardware %d cycles, software %d cycles, ratio %.1f\n",
		hwApp, swApp, float64(swApp)/float64(hwApp))
	fmt.Fprintln(w, "paper: the software layer makes dynamic programs uncompetitive — the case for hardware coherence")
}

const chaseLen = 1024

// chaseTable allocates a deterministic permutation table spread over nodes.
func chaseTable(m *machine.Machine, nodes int) []mem.Addr {
	addrs := make([]mem.Addr, chaseLen)
	for i := range addrs {
		addrs[i] = m.Store.AllocOn(i%nodes, mem.LineWords)
	}
	// next[i] = (i*striding) mod len: a fixed pseudo-random walk.
	for i, a := range addrs {
		m.Store.Write(a, uint64((i*617+31)%chaseLen))
	}
	return addrs
}

func chaseHW(cfg Config, nodes int) uint64 {
	m := newMachine(cfg, nodes)
	addrs := chaseTable(m, nodes)
	var cycles uint64
	m.Spawn(0, 0, "chase", func(p *machine.Proc) {
		p.Flush()
		s := p.Ctx.Now()
		idx := uint64(0)
		for k := 0; k < chaseLen; k++ {
			idx = p.Read(addrs[idx])
			p.Elapse(2)
		}
		p.Flush()
		cycles = p.Ctx.Now() - s
	})
	m.Run()
	return cycles
}

func chaseSW(cfg Config, nodes int) uint64 {
	m := newMachine(cfg, nodes)
	d := swdsm.New(m, swdsm.DefaultParams())
	addrs := chaseTable(m, nodes)
	var cycles uint64
	m.Spawn(0, 0, "chase", func(p *machine.Proc) {
		p.Flush()
		s := p.Ctx.Now()
		idx := uint64(0)
		for k := 0; k < chaseLen; k++ {
			idx = d.Read(p, addrs[idx])
			p.Elapse(2)
		}
		p.Flush()
		cycles = p.Ctx.Now() - s
	})
	m.Run()
	return cycles
}
