package core

import (
	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
)

// Bulk memory-to-memory transfer (Section 4.4). Three implementations of
// copying `words` 8-byte doublewords into another node's memory:
//
//   - CopySM(prefetch=false): a hand-coded loop of doubleword loads and
//     stores through the shared-memory interface;
//   - CopySM(prefetch=true): the same loop prefetching one cache block
//     (16 bytes) ahead — the destination block is prefetched in read state,
//     so every store pays an upgrade after retiring the buffered prefetch
//     transaction, which is how a naive prefetching copy ends up *slower*
//     than the plain loop (the paper's Figure 7 shows exactly this
//     inversion);
//   - CopyMP / FetchMP / CopyMPNotify: a single message using the CMMU's
//     DMA facilities, gathered at the source and scattered at the
//     destination, with a fixed software cost at each end (descriptor
//     construction, storeback setup, completion bookkeeping) that dominates
//     small transfers — Figure 7's crossover.

// CopyLoopCycles is the per-iteration instruction overhead of the copy
// loop beyond its loads and stores.
const CopyLoopCycles = 2

// CopySM copies words doublewords from src to dst with loads and stores on
// processor p; with prefetch it prefetches one block ahead.
func CopySM(p *machine.Proc, dst, src mem.Addr, words uint64, prefetch bool) {
	for w := uint64(0); w < words; w++ {
		if prefetch && w%mem.LineWords == 0 && w+mem.LineWords < words {
			p.Prefetch(dst+mem.Addr(w+mem.LineWords), false)
		}
		v := p.Read(src + mem.Addr(w))
		p.Write(dst+mem.Addr(w), v)
		p.Elapse(CopyLoopCycles)
	}
	p.Flush()
}

// copyOp carries host-side completion state for an in-flight MP transfer.
type copyOp struct {
	gate sim.Gate
}

// noAck marks a transfer that should not send a completion message.
const noAck = ^uint64(0)

// sendCopy emits one bulk message.
func (rt *RT) sendCopy(p *machine.Proc, dstNode int, dst, src mem.Addr,
	words, id, ackTo, token uint64) {
	p.Elapse(copySetup)
	p.SendMessage(cmmu.Descriptor{
		Type:    msgCopy,
		Dst:     dstNode,
		Ops:     []uint64{uint64(dst), id, ackTo, token},
		Regions: []cmmu.Region{{Base: src, Words: words}},
	})
}

// CopyMP pushes words doublewords from local memory at src into dst on
// node dstNode as one message, blocking p until the destination
// acknowledges that the data is in its memory.
func (rt *RT) CopyMP(p *machine.Proc, dstNode int, dst, src mem.Addr, words uint64) {
	op := &copyOp{}
	id := rt.newTaskID()
	rt.copies[id] = op
	rt.sendCopy(p, dstNode, dst, src, words, id, uint64(p.ID()), 0)
	p.Flush()
	op.gate.Wait(p.Ctx)
}

// CopyMPAsync is CopyMP without waiting; the returned gate fires when the
// destination has stored the data (one-way completion, what Figure 7
// measures for the message-passing curve).
func (rt *RT) CopyMPAsync(p *machine.Proc, dstNode int, dst, src mem.Addr, words uint64) *sim.Gate {
	op := &copyOp{}
	id := rt.newTaskID()
	rt.copies[id] = op
	rt.sendCopy(p, dstNode, dst, src, words, id, uint64(dstNode), 0)
	return &op.gate
}

// CopyMPNotify pushes data without any sender-side completion; the
// receiving node's watcher registered under token runs inside the delivery
// handler once the data is stored (how jacobi's border messages double as
// synchronization).
func (rt *RT) CopyMPNotify(p *machine.Proc, dstNode int, dst, src mem.Addr, words, token uint64) {
	rt.sendCopy(p, dstNode, dst, src, words, 0, noAck, token)
}

// RegisterCopyWatcher installs fn to run (in interrupt context on the
// receiving node) whenever a CopyMPNotify transfer with this token lands.
func (rt *RT) RegisterCopyWatcher(token uint64, fn func()) {
	if _, dup := rt.watchers[token]; dup {
		panic("core: duplicate copy watcher token")
	}
	rt.watchers[token] = fn
}

// FetchMP pulls words doublewords from src on node srcNode into local
// memory at dst: a request message out, one bulk message back, blocking p
// until the data is local (the accum pull pattern of Figure 8).
func (rt *RT) FetchMP(p *machine.Proc, srcNode int, dst, src mem.Addr, words uint64) {
	op := &copyOp{}
	id := rt.newTaskID()
	rt.copies[id] = op
	p.Elapse(copySetup)
	p.SendMessage(cmmu.Descriptor{
		Type: msgCopyReq,
		Dst:  srcNode,
		Ops:  []uint64{uint64(src), words, uint64(dst), id, uint64(p.ID())},
	})
	p.Flush()
	op.gate.Wait(p.Ctx)
}

// onCopy lands a bulk transfer: scatter to memory, then fire the local
// completion gate, run the notify watcher, or acknowledge the sender.
func (c *core) onCopy(e *cmmu.Env) {
	e.ReadOps(4)
	e.Elapse(copyHandler)
	base := mem.Addr(e.Ops[0])
	id := e.Ops[1]
	ackTo := e.Ops[2]
	token := e.Ops[3]
	e.Storeback(base, e.Data)
	if token != 0 {
		w := c.rt.watchers[token]
		if w == nil {
			panic("core: bulk transfer with unknown watcher token")
		}
		w()
		return
	}
	if ackTo == uint64(c.id) {
		c.rt.fireCopy(id)
		return
	}
	e.Reply(cmmu.Descriptor{Type: msgCopyAck, Dst: int(ackTo), Ops: []uint64{id}})
}

// onCopyAck completes the sender side of a push.
func (c *core) onCopyAck(e *cmmu.Env) {
	e.ReadOps(1)
	c.rt.fireCopy(e.Ops[0])
}

// onCopyReq serves a pull: reply with one bulk message gathered by DMA.
func (c *core) onCopyReq(e *cmmu.Env) {
	e.ReadOps(5)
	e.Elapse(copyHandler)
	src := mem.Addr(e.Ops[0])
	words := e.Ops[1]
	dst := e.Ops[2]
	id := e.Ops[3]
	requester := e.Ops[4]
	e.Reply(cmmu.Descriptor{
		Type:    msgCopy,
		Dst:     int(requester),
		Ops:     []uint64{dst, id, requester, 0},
		Regions: []cmmu.Region{{Base: src, Words: words}},
	})
}

// fireCopy resolves an in-flight transfer by id.
func (rt *RT) fireCopy(id uint64) {
	op := rt.copies[id]
	if op == nil {
		panic("core: unknown copy id")
	}
	delete(rt.copies, id)
	op.gate.Fire()
}
