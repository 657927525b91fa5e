package machine_test

import (
	"testing"

	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/stats"
)

// Topology regression tests. The constant-latency Ideal network once
// livelocked the coherence retry loop at 64 nodes: a chasing recall could
// arrive in the same cycle as the grant it followed and be processed
// before the granted processor's resume event, invalidating the line every
// retry. Strict per-pair FIFO delivery (distinct arrival times) fixes it;
// these tests pin the behaviour for every topology.

func topoRT(t *testing.T, topo machine.Topology, nodes int, mode core.Mode) *core.RT {
	t.Helper()
	cfg := machine.DefaultConfig(nodes)
	cfg.Topology = topo
	return core.NewDefault(machine.New(cfg), mode)
}

func TestAllTopologiesBarrier64(t *testing.T) {
	for _, topo := range []machine.Topology{machine.TopoMesh, machine.TopoIdeal} {
		for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
			rt := topoRT(t, topo, 64, mode)
			done := 0
			rt.SPMD(func(p *machine.Proc) {
				for i := 0; i < 4; i++ {
					rt.Barrier().Sync(p)
				}
				done++
			})
			if done != 64 {
				t.Fatalf("topo %d mode %v: %d nodes finished", topo, mode, done)
			}
		}
	}
}

func TestAllTopologiesForkJoin(t *testing.T) {
	for _, topo := range []machine.Topology{machine.TopoMesh, machine.TopoIdeal} {
		for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
			rt := topoRT(t, topo, 8, mode)
			v, _ := rt.Run(func(tc *core.TC) uint64 {
				fs := make([]*core.Future, 16)
				for i := range fs {
					fs[i] = tc.Fork(func(c *core.TC) uint64 {
						c.Elapse(100)
						return 1
					})
				}
				var s uint64
				for _, f := range fs {
					s += f.Touch(tc)
				}
				return s
			})
			if v != 16 {
				t.Fatalf("topo %d mode %v: sum = %d", topo, mode, v)
			}
		}
	}
}

func TestIdealFasterThanMeshFarTraffic(t *testing.T) {
	// Sanity: removing hops must not slow anything down.
	measure := func(topo machine.Topology) uint64 {
		cfg := machine.DefaultConfig(64)
		cfg.Topology = topo
		m := machine.New(cfg)
		base := m.Store.AllocOn(63, 64) // far corner on the mesh
		var cyc uint64
		m.Spawn(0, 0, "p", func(p *machine.Proc) {
			p.Flush()
			s := p.Ctx.Now()
			for i := 0; i < 32; i++ { // cold miss per line
				p.Read(base + mem.Addr(i*mem.LineWords))
			}
			p.Flush()
			cyc = p.Ctx.Now() - s
		})
		m.Run()
		return cyc
	}
	mesh := measure(machine.TopoMesh)
	ideal := measure(machine.TopoIdeal)
	if ideal >= mesh {
		t.Fatalf("ideal network (%d) not faster than mesh (%d) for far traffic", ideal, mesh)
	}
}

// Every network counts the packets it carries and the fault verdicts it
// hands out: a lossy run on the ideal network reports net.* counters just
// as the mesh does.
func TestLossyRunCountsOnEveryNetwork(t *testing.T) {
	for _, topo := range []machine.Topology{machine.TopoMesh, machine.TopoIdeal} {
		cfg := machine.DefaultConfig(8)
		cfg.Topology = topo
		cfg.Net.Fault = &mesh.NetFault{Seed: 3, Drop: 0.02, Dup: 0.02, Reorder: 0.02}
		m := machine.New(cfg)
		rt := core.NewDefault(m, core.ModeHybrid)
		rt.SPMD(func(p *machine.Proc) {
			for i := 0; i < 8; i++ {
				rt.Barrier().Sync(p)
			}
		})
		for _, id := range []stats.ID{stats.NetPackets, stats.NetPacketCycles,
			stats.NetFaultDrops, stats.NetFaultDups, stats.NetFaultReorders} {
			if m.St.Global.Get(id) == 0 {
				t.Errorf("topology %d: %v is zero after a lossy run:\n%s", topo, id, m.St)
			}
		}
	}
}
