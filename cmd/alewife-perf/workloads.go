package main

import (
	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/sim"
)

// Per-subsystem workloads. Each stresses one layer of the per-operation data
// path in isolation — the directory pipeline, the mesh, the CMMU DMA path —
// so a regression in BENCH_sim.json names the subsystem that caused it.
// Patterns are pure functions of loop indices: no RNG, identical event
// streams on every run.

// ctxPingPong alternates two contexts whose sleeps interleave, so every
// simulated cycle is a context-to-context transfer with no inline work in
// between — the pure handoff cost of the scheduler. Returns total switches.
func ctxPingPong(n int64) int64 {
	e := sim.NewEngine()
	half := n / 2
	body := func(c *sim.Context) {
		for i := int64(0); i < half; i++ {
			c.Sleep(2)
		}
	}
	e.Spawn("ping", 0, body)
	e.Spawn("pong", 1, body)
	e.Run()
	return half * 2
}

// ctxSoloCompute drives one context through a bare Sleep loop with nothing
// else queued — the shape of a compute delay loop (Proc.Elapse). Every wake
// is the context's own, consumed by its own dispatch loop with no coroutine
// switch. Returns sleeps.
func ctxSoloCompute(n int64) int64 {
	e := sim.NewEngine()
	e.Spawn("solo", 0, func(c *sim.Context) {
		for i := int64(0); i < n; i++ {
			c.Sleep(5)
		}
	})
	e.Run()
	return n
}

// dirChurn hammers the home directory machinery: 8 nodes take turns writing
// and reading a small set of lines homed on node 0, on a tiny cache, so
// every access is an invalidation round, a recall, an eviction or a
// LimitLESS overflow trap. Returns total shared-memory accesses.
func dirChurn(accessesPerNode int64) int64 {
	const nodes = 8
	cfg := machine.DefaultConfig(nodes)
	cfg.CacheSets = 16 // eviction pressure without making every access a miss
	cfg.CacheWays = 1
	cfg.HWPointers = 4 // full-machine read sharing overflows to software
	m := machine.New(cfg)

	const lines = 12
	addrs := make([]mem.Addr, lines)
	for i := range addrs {
		addrs[i] = m.Store.AllocOn(0, mem.LineWords) // one hot home
	}
	for n := 0; n < nodes; n++ {
		node := n
		m.Spawn(node, 0, "churn", func(p *machine.Proc) {
			for i := int64(0); i < accessesPerNode; i++ {
				a := addrs[(i+int64(node)*3)%lines]
				if (i+int64(node))%3 == 0 {
					p.Write(a, uint64(i)<<8|uint64(node))
				} else {
					p.Read(a)
				}
			}
			p.Flush()
		})
	}
	m.Run()
	return accessesPerNode * nodes
}

// meshSaturation drives a standing population of packets across an 8x8 mesh:
// every delivery launches the next packet from the destination, so the
// network stays saturated and per-packet overhead (routing walk, link
// reservation, FIFO clamp, delivery scheduling) dominates. Packets travel
// through the pooled SendMsg path — (src, hop) ride in the event payload, so
// the steady state allocates nothing. Returns packets delivered.
type satDriver struct {
	eng       *sim.Engine
	net       mesh.Network
	n         int
	remaining int64
}

// Packet sizes cycle through control- and data-sized payloads.
var satSizes = [...]int{8, 8, 24, 8, 96}

// Fire implements sim.Sink: one launch from node p0 as hop p1, for a
// delivery (p0 the arriving packet's destination, p1 its hop count plus
// one) or a standing packet's first launch.
func (s *satDriver) Fire(op uint32, p0, p1 uint64) {
	s.launch(int(p0), int(p1))
}

func (s *satDriver) launch(src, hop int) {
	s.remaining--
	if s.remaining <= 0 {
		s.eng.Halt()
		return
	}
	// A fixed co-prime stride visits every (src,dst) pair class.
	dst := (src + 13 + hop%7) % s.n
	s.net.SendMsg(src, dst, satSizes[hop%len(satSizes)], s.eng.Now(),
		s, 0, uint64(dst), uint64(hop+1))
}

// saturate drives the standing packet population over any network.
func saturate(eng *sim.Engine, net mesh.Network, total int64) int64 {
	s := &satDriver{eng: eng, net: net, n: net.Nodes(), remaining: total}
	const standing = 64
	for i := 0; i < standing; i++ {
		eng.AtSink(0, s, 0, uint64(i), uint64(i))
	}
	eng.Run()
	return total - s.remaining
}

func meshSaturation(total int64) int64 {
	eng := sim.NewEngine()
	return saturate(eng, mesh.New(eng, 8, 8, mesh.DefaultParams(), nil), total)
}

// netLoss is meshSaturation through the reliable-delivery sublayer: the same
// standing packet population, but every packet carries a sequence header, is
// acknowledged, deduplicated and — at rate > 0 — dropped/duplicated/
// reordered by the wires and recovered by retransmission. rate 0 prices the
// sublayer itself (headers, acks, window bookkeeping) with no faults firing;
// nonzero rates add the recovery machinery's cost. Returns packets
// delivered end to end.
func netLoss(rate float64, total int64) int64 {
	eng := sim.NewEngine()
	p := mesh.DefaultParams()
	if rate > 0 {
		p.Fault = &mesh.NetFault{Seed: 1, Drop: rate, Dup: rate, Reorder: rate}
	}
	inner := mesh.New(eng, 8, 8, p, nil)
	rel := cmmu.NewReliable(eng, inner, nil)
	return saturate(eng, rel, total)
}

// dmaBulk measures the CMMU bulk-transfer path: 4 nodes stream messages that
// gather a 16-word region by DMA at the source and storeback-scatter it at
// the destination (the paper's memory-to-memory copy primitive). Returns
// words moved end to end.
func dmaBulk(msgsPerNode int64) int64 {
	const nodes, words = 4, 16
	m := machine.New(machine.DefaultConfig(nodes))

	const msgCopy = 200
	src := make([]mem.Addr, nodes)
	dst := make([]mem.Addr, nodes)
	for n := 0; n < nodes; n++ {
		src[n] = m.Store.AllocOn(n, words)
		dst[n] = m.Store.AllocOn(n, words)
		for i := 0; i < words; i++ {
			m.Store.Write(src[n]+mem.Addr(i), uint64(n*words+i))
		}
	}
	for n := 0; n < nodes; n++ {
		node := n
		m.Nodes[node].CMMU.Register(msgCopy, func(e *cmmu.Env) {
			e.ReadOps(1)
			e.Storeback(dst[node], e.Data)
		})
	}
	for n := 0; n < nodes; n++ {
		node := n
		m.Spawn(node, 0, "dma", func(p *machine.Proc) {
			// The CMMU gathers regions at injection, so one descriptor
			// region buffer serves every send.
			regions := []cmmu.Region{{Base: src[node], Words: words}}
			for i := int64(0); i < msgsPerNode; i++ {
				p.SendMessage(cmmu.Descriptor{
					Type:    msgCopy,
					Dst:     int((int64(node) + 1 + i) % nodes),
					Regions: regions,
				})
				p.Elapse(20) // paced sender: the DMA engines stay busy, not the queue
			}
			p.Flush()
		})
	}
	m.Run()
	return msgsPerNode * int64(nodes) * words
}
