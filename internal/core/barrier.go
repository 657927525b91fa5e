package core

import (
	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/metrics"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Barrier is the combining-tree barrier of Section 4.2. A k-ary tree is
// laid out across the n processors, tree node i on processor i (heap
// layout: children of i are k*i+1..k*i+k).
//
// Shared-memory flavour: children signal arrival by atomically incrementing
// their parent's counter; each processor spins on words homed in its own
// memory (arrival counter, wake generation), so waiting is local until a
// remote write invalidates the spun-on line — yet every signal still costs
// its sender a full coherence transaction, and often costs the spinner a
// re-fetch. Wake-ups propagate down by remote writes.
//
// Hybrid flavour: arrivals and wake-ups are single messages combined in the
// handlers — the ideal one-message-per-event the paper describes — with
// only the processor's own arrival and final wait happening outside
// interrupt context.
type Barrier struct {
	rt    *RT
	arity int // tree fan-out for the *message* tree
	smAr  int // tree fan-out for the shared-memory tree

	// Per-node epochs (each processor's private count of barriers done).
	epoch []uint64

	// Shared-memory state: monotonic arrival counters and wake generations.
	cnt  []mem.Addr
	wake []mem.Addr

	// Hybrid state, manipulated by handlers.
	harrived []uint64
	hepoch   []uint64
	hwait    []*machine.Proc
}

// DefaultMsgArity is the paper's best message tree on 64 nodes (two-level
// eight-ary); DefaultSMArity its best shared-memory tree (six-level binary).
const (
	DefaultMsgArity = 8
	DefaultSMArity  = 2
)

func newBarrier(rt *RT) *Barrier {
	n := rt.Cores()
	b := &Barrier{
		rt: rt, arity: DefaultMsgArity, smAr: DefaultSMArity,
		epoch:    make([]uint64, n),
		cnt:      make([]mem.Addr, n),
		wake:     make([]mem.Addr, n),
		harrived: make([]uint64, n),
		hepoch:   make([]uint64, n),
		hwait:    make([]*machine.Proc, n),
	}
	for i := 0; i < n; i++ {
		b.cnt[i] = rt.M.Store.AllocOn(i, mem.LineWords)
		b.wake[i] = rt.M.Store.AllocOn(i, mem.LineWords)
	}
	return b
}

// SetArity overrides the tree fan-outs (ablation benchmarks).
func (b *Barrier) SetArity(msgArity, smArity int) {
	if msgArity < 2 || smArity < 2 {
		panic("core: barrier arity must be >= 2")
	}
	b.arity = msgArity
	b.smAr = smArity
}

func parent(i, a int) int { return (i - 1) / a }

func (b *Barrier) nchildren(i, a int) int {
	n := b.rt.Cores()
	lo := a*i + 1
	if lo >= n {
		return 0
	}
	hi := a*i + a
	if hi > n-1 {
		hi = n - 1
	}
	return hi - lo + 1
}

func (b *Barrier) children(i, a int) []int {
	n := b.rt.Cores()
	var out []int
	for c := a*i + 1; c <= a*i+a && c < n; c++ {
		out = append(out, c)
	}
	return out
}

// Sync blocks p until every processor has entered the barrier this epoch.
// Every node must call Sync exactly once per episode.
func (b *Barrier) Sync(p *machine.Proc) {
	if b.rt.Cores() == 1 {
		return
	}
	b.rt.M.St.Inc(p.ID(), stats.BarrierEpisodes)
	p.PushRegion(metrics.SyncWait)
	if b.rt.Mode == ModeHybrid {
		b.syncHybrid(p)
	} else {
		b.syncSM(p)
	}
	p.PopRegion()
	b.rt.M.St.Emit(p.Ctx.Now(), p.ID(), trace.KBarrier, b.epoch[p.ID()])
}

const spinCycles = 12 // re-check period while spinning on a local line

// barHandlerCycles is the software cost of one barrier event (counter
// update, tree bookkeeping) at interrupt level or in the arrival path.
const barHandlerCycles = 20

// syncSM is the cache-coherent shared-memory combining tree.
func (b *Barrier) syncSM(p *machine.Proc) {
	i := p.ID()
	a := b.smAr
	e := b.epoch[i] + 1
	b.epoch[i] = e
	nch := uint64(b.nchildren(i, a))
	if nch > 0 {
		for p.Read(b.cnt[i]) < e*nch {
			p.Elapse(spinCycles)
			p.Flush()
		}
	}
	if i != 0 {
		p.FetchAdd(b.cnt[parent(i, a)], 1)
		for p.Read(b.wake[i]) < e {
			p.Elapse(spinCycles)
			p.Flush()
		}
	}
	for _, ch := range b.children(i, a) {
		p.Write(b.wake[ch], e)
	}
}

// syncHybrid is the message combining tree: one message per arrival, one
// per wake-up, combined in interrupt handlers.
func (b *Barrier) syncHybrid(p *machine.Proc) {
	i := p.ID()
	e := b.epoch[i] + 1
	b.epoch[i] = e

	p.MaskInterrupts()
	p.Elapse(barHandlerCycles)
	b.harrived[i]++
	full := b.harrived[i] == uint64(b.nchildren(i, b.arity))+1
	if full {
		b.harrived[i] = 0
	}
	p.UnmaskInterrupts()
	if full {
		b.complete(i, e, p, nil)
	}
	p.Flush()
	if b.hepoch[i] < e {
		b.hwait[i] = p
		p.Ctx.Block()
		b.hwait[i] = nil
	}
}

// complete fires when tree node i has all arrivals for epoch e: signal the
// parent, or at the root start the wake-up wave. Exactly one of p/env is
// non-nil: the signal is sent from processor or interrupt context.
func (b *Barrier) complete(i int, e uint64, p *machine.Proc, env *cmmu.Env) {
	if i == 0 {
		b.release(i, e, p, env)
		return
	}
	d := cmmu.Descriptor{Type: msgBarArrive, Dst: parent(i, b.arity), Ops: []uint64{e}}
	if p != nil {
		p.SendMessage(d)
	} else {
		env.Reply(d)
	}
}

// release marks node i released for epoch e, wakes its waiting processor,
// and forwards the wake-up to its children.
func (b *Barrier) release(i int, e uint64, p *machine.Proc, env *cmmu.Env) {
	b.hepoch[i] = e
	for _, ch := range b.children(i, b.arity) {
		d := cmmu.Descriptor{Type: msgBarWake, Dst: ch, Ops: []uint64{e}}
		if p != nil {
			p.SendMessage(d)
		} else {
			env.Reply(d)
		}
	}
	if w := b.hwait[i]; w != nil {
		w.Ctx.Unblock()
	}
}

// onBarArrive accumulates a child's arrival at this tree node.
func (c *core) onBarArrive(e *cmmu.Env) {
	e.ReadOps(len(e.Ops))
	b := c.rt.barrier
	i := c.id
	e.Elapse(barHandlerCycles)
	b.harrived[i]++
	if b.harrived[i] == uint64(b.nchildren(i, b.arity))+1 {
		b.harrived[i] = 0
		b.complete(i, e.Ops[0], nil, e)
	}
}

// onBarWake releases this node and forwards the wave.
func (c *core) onBarWake(e *cmmu.Env) {
	e.ReadOps(len(e.Ops))
	e.Elapse(barHandlerCycles)
	c.rt.barrier.release(c.id, e.Ops[0], nil, e)
}
