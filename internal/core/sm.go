package core

import (
	"alewife/internal/machine"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// The shared-memory scheduler keeps its ready queues in coherent shared
// memory, so each of its queue operations is a run of loads, stores and
// test-and-sets, any of which can miss. Each access is a step-form access
// (machine.Proc.StepRead and friends), each queue operation and lock a
// chain of them (queueStep, lockStep), and the loop one more step type
// over the core, smStep, with a state field, core.sstate: every access
// that waits, every flush and every park ends a step and names the next,
// and the scheduler's context is resumed only to start and, once the
// runtime is done, to return.
type smStep core

// The points of the shared-memory loop a wake takes up.
const (
	ssTop          uint8 = iota // the loop's top: stop when done, else probe the wake queue
	ssWakeProbed                // the wake queue's probe is done: pop it, or probe the task queue
	ssWakePopped                // the wake queue's pop is done: dispatch, or probe the task queue
	ssTaskProbe                 // probe the task queue
	ssTaskProbed                // the task queue's probe is done: pop it, or steal
	ssTaskPopped                // the task queue's pop is done: dispatch, or steal
	ssSweep                     // probe the sweep's next victim, or end the sweep
	ssVictimProbed              // the victim's probe is done: steal from it, or fail
	ssStolen                    // the steal is done: dispatch, or fail
	ssDispatch                  // an item is ready: charge the switch and flush
	ssHandBack                  // the dispatched thread handed the processor back
)

// smLoop is the shared-memory scheduler's body. The whole loop runs under
// an Idle attribution region: queue polling, stealing, backoff and
// context-switch overhead are scheduler time. The interval a dispatched
// thread runs is carved out by dispatch (the thread's own processor covers
// it). The chain of steps returns here only when the runtime is done.
func (c *core) smLoop(p *machine.Proc) {
	p.PushRegion(metrics.Idle)
	c.sstate = ssTop
	p.Ctx.RunStep((*smStep)(c))
}

// AtWake runs the shared-memory loop from sstate to its next wait; each
// case is the part of the loop between two of them:
//
//	for !done {
//		if the wake queue's probe finds work: pop it
//		if nothing popped and the task queue's probe finds work: pop it
//		if nothing popped: steal
//		else: dispatch the item and wait for the hand-back
//	}
//
// A steal on more than one node sweeps up to maxProbes victims, probing
// each victim's task queue before the locked steal, but only once the
// probe gate (nextProbe) has opened; remote sweeps back off exponentially
// while the loop keeps polling its own queues at the base period (local
// cached reads). rt.done is read only at the loop's top and before each
// victim's probe.
//
//alewife:hotpath
func (s *smStep) AtWake(ctx *sim.Context) bool {
	c := (*core)(s)
	p := c.schedProc
	o := &c.op
	for {
		var armed bool
		switch c.sstate {
		case ssTop:
			if c.rt.done {
				return true
			}
			c.sstate = ssWakeProbed
			armed = o.run(p, c.wakeq, qsProbe, queueItem{}, s)
		case ssWakeProbed:
			c.sstate = ssTaskProbe
			if !o.empty() {
				c.sstate = ssWakePopped
				armed = o.run(p, c.wakeq, qsPop, queueItem{}, s)
			}
		case ssWakePopped:
			c.sstate = ssTaskProbe
			if !o.it.empty() {
				c.item = o.it
				c.sstate = ssDispatch
			}
		case ssTaskProbe:
			c.sstate = ssTaskProbed
			armed = o.run(p, c.taskq, qsProbe, queueItem{}, s)
		case ssTaskProbed:
			if o.empty() {
				armed = c.steal(s)
				break
			}
			c.sstate = ssTaskPopped
			armed = o.run(p, c.taskq, qsPop, queueItem{}, s)
		case ssTaskPopped:
			if o.it.empty() {
				armed = c.steal(s)
				break
			}
			c.item = o.it
			c.sstate = ssDispatch
		case ssSweep:
			if c.round < maxProbes && !c.rt.done {
				v := c.rt.cores[c.victim(c.round)]
				c.victimID = v.id
				c.rt.M.St.Inc(c.id, stats.StealAttempts)
				c.sstate = ssVictimProbed
				armed = o.run(p, v.taskq, qsProbe, queueItem{}, s)
				break
			}
			c.nextProbe = ctx.Now() + c.nextBackoff()
			armed = c.idle(s, idleBackoff)
		case ssVictimProbed:
			c.sstate = ssStolen
			if o.empty() {
				o.it = queueItem{}
				break
			}
			armed = o.run(p, c.rt.cores[c.victimID].taskq, qsSteal, queueItem{}, s)
		case ssStolen:
			if o.it.empty() {
				c.rt.M.St.Inc(c.id, stats.StealFailures)
				c.round++
				c.sstate = ssSweep
				break
			}
			c.rt.M.St.Event(c.id, stats.ThreadsStolen, ctx.Now(), trace.KSteal, uint64(c.victimID))
			c.item = o.it
			c.sstate = ssDispatch
		case ssDispatch:
			// The flush's wake runs dispatch's step, core.AtWake, which
			// starts or resumes the thread and names ssHandBack next.
			c.idleFails = 0
			p.Elapse(switchCycles)
			if p.StepFlush(c) {
				return false
			}
			return c.AtWake(ctx)
		case ssHandBack:
			c.handBack()
			c.sstate = ssTop
		}
		if armed {
			return false
		}
	}
}

// steal starts a steal round after the loop found no local work: on one
// node it only backs off; otherwise, once the probe gate is open, a sweep
// over the victims, else a poll period for the local queues. It reports
// whether it armed a wait.
//
//alewife:hotpath
func (c *core) steal(s *smStep) bool {
	if c.rt.Cores() == 1 {
		return c.idle(s, c.nextBackoff())
	}
	if c.schedProc.Ctx.Now() >= c.nextProbe {
		c.round = 0
		c.sstate = ssSweep
		return false
	}
	return c.idle(s, idleBackoff)
}

// idle spends d cycles of idle-loop time on the processor and flushes
// them; the flush's wake takes the loop up at its top. It reports whether
// the flush armed that wake.
//
//alewife:hotpath
func (c *core) idle(s *smStep, d uint64) bool {
	c.rt.M.St.Add(c.id, stats.IdleCycles, int64(d))
	p := c.schedProc
	p.Elapse(d)
	c.sstate = ssTop
	return p.StepFlush(s)
}
