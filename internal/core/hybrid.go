package core

import (
	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// The hybrid scheduler works only on node-local queues, under masked
// interrupts, and on messages; it never touches coherent memory, so none
// of its operations can miss. Its loop therefore runs as a chain of steps
// inside the dispatch loop (sim.Context.Then, ThenOnWake): every flush and
// park of the loop ends its step and names the next, and its context is
// resumed only to start and, once the runtime is done, to return.
// hybridStep is that step, and core.hstate says where the next wake takes
// the loop up.
type hybridStep core

// The points of the hybrid loop a wake takes up.
const (
	hsTop        uint8 = iota // the loop's top: stop when done, else pop the wake queue
	hsWakePopped              // the wake queue's pop flushed: unmask, then the task queue
	hsTaskPopped              // the task queue's pop flushed: unmask, then dispatch or steal
	hsDispatch                // an item was popped: charge the switch and flush
	hsSend                    // the steal request's flush retired: launch it
	hsSent                    // the launch retired: park until the reply
	hsStealWait               // woken from the park until the reply
	hsStealDone               // the steal round is over: back off if still idle
	hsBackoff                 // woken from the backoff park
	hsHandBack                // the dispatched thread handed the processor back
)

// hybridLoop is the hybrid scheduler's body. The whole loop runs under an
// Idle attribution region, as the shared-memory loop does; the chain of
// steps returns here only when the runtime is done.
func (c *core) hybridLoop(p *machine.Proc) {
	p.PushRegion(metrics.Idle)
	c.hstate = hsTop
	p.Ctx.RunStep((*hybridStep)(c))
}

// AtWake runs the hybrid loop from hstate to its next flush or park; each
// case is the part of the loop between two of them:
//
//	for !done {
//		pop the wake queue, else the task queue
//		if nothing popped: send a steal request and park (or back off)
//		else: dispatch the item and wait for the hand-back
//	}
//
// rt.done is checked only at the loop's top: a scheduler whose pops come
// up empty after the runtime finished still sends its steal request.
//
//alewife:hotpath
func (s *hybridStep) AtWake(ctx *sim.Context) bool {
	c := (*core)(s)
	p := c.schedProc
	for {
		switch c.hstate {
		case hsTop:
			if c.rt.done {
				return true
			}
			c.hstate = hsWakePopped
			if c.popFlush(&c.hwakeq) {
				return false
			}
		case hsWakePopped:
			p.Node.CMMU.UnmaskInterrupts()
			if !c.item.empty() {
				c.hstate = hsDispatch
				continue
			}
			c.hstate = hsTaskPopped
			if c.popFlush(&c.htaskq) {
				return false
			}
		case hsTaskPopped:
			p.Node.CMMU.UnmaskInterrupts()
			switch {
			case !c.item.empty():
				c.hstate = hsDispatch
			case c.rt.Cores() == 1:
				d := c.nextBackoff()
				c.rt.M.St.Add(c.id, stats.IdleCycles, int64(d))
				p.Elapse(d)
				c.hstate = hsTop
				if p.StepFlush(s) {
					return false
				}
			default:
				c.rt.M.St.Inc(c.id, stats.StealAttempts)
				c.stealPending = true
				c.hstate = hsSend
				if p.StepFlush(s) {
					return false
				}
			}
		case hsDispatch:
			// The flush's wake runs dispatch's step, core.AtWake, which
			// starts or resumes the thread and names hsHandBack next.
			c.idleFails = 0
			p.Elapse(switchCycles)
			if p.StepFlush(c) {
				return false
			}
			return c.AtWake(ctx)
		case hsSend:
			p.Launch(cmmu.Descriptor{Type: msgSteal, Dst: c.victim(0), Ops: c.stealOps[:]})
			c.hstate = hsSent
			if p.StepFlush(s) {
				return false
			}
		case hsSent:
			// The reply (or other work) may have landed during the flush;
			// park only while it is outstanding and nothing became
			// runnable. The reply's handler wakes the scheduler
			// (wakeIdle), as does any work message.
			if c.stealPending && c.waiting() {
				return c.park(ctx, 0, hsStealWait)
			}
			c.hstate = hsStealDone
		case hsStealWait:
			c.unpark(ctx)
			c.hstate = hsStealDone
		case hsStealDone:
			// After a fruitless round, back off to avoid hammering
			// victims with request storms. The backoff is a timed park:
			// any incoming work message cuts it short via wakeIdle.
			if c.waiting() {
				return c.park(ctx, c.nextBackoff(), hsBackoff)
			}
			c.hstate = hsTop
		case hsBackoff:
			c.unpark(ctx)
			c.hstate = hsTop
		case hsHandBack:
			c.handBack()
			c.hstate = hsTop
		}
	}
}

// popFlush pops q's newest item into c.item with interrupts masked, for
// queueOpCycles, and takes the pop's flush; the flush's wake unmasks and
// drains the handlers that came in meanwhile. It reports whether the flush
// armed that wake.
//
//alewife:hotpath
func (c *core) popFlush(q *hybridQueue) bool {
	p := c.schedProc
	p.MaskInterrupts()
	p.Elapse(queueOpCycles)
	if n := len(q.items); n > 0 {
		c.item = q.items[n-1]
		q.items = q.items[:n-1]
	}
	return p.StepFlush((*hybridStep)(c))
}

// waiting reports that the scheduler has nothing to run and the runtime is
// still going.
//
//alewife:hotpath
func (c *core) waiting() bool {
	return len(c.hwakeq.items) == 0 && len(c.htaskq.items) == 0 && !c.rt.done
}

// park leaves the scheduler parked until a message handler wakes it
// (wakeIdle) or, when d > 0, until d cycles pass; the loop takes up at
// next, which books the time parked as idle (unpark). It returns false for
// the calling step to return.
//
//alewife:hotpath
func (c *core) park(ctx *sim.Context, d uint64, next uint8) bool {
	c.parked = true
	c.parkedAt = ctx.Now()
	if d > 0 {
		ctx.UnblockAt(c.parkedAt + d)
	}
	c.hstate = next
	ctx.ThenOnWake((*hybridStep)(c))
	return false
}

// unpark ends a park: the time parked is idle.
//
//alewife:hotpath
func (c *core) unpark(ctx *sim.Context) {
	c.parked = false
	c.rt.M.St.Add(c.id, stats.IdleCycles, int64(ctx.Now()-c.parkedAt))
}
