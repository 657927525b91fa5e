package core

import (
	"fmt"
	"math/rand"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// core is one node's scheduler: the idle loop, the ready queues, and the
// work-stealing machinery. The shared-memory scheduler keeps its queues in
// coherent shared memory and polls (loop); the hybrid scheduler keeps them
// local, manipulates them from message handlers, and parks while a steal
// request is outstanding (hybridStep).
type core struct {
	rt   *RT
	id   int
	node *machine.Node

	schedProc *machine.Proc
	rng       *rand.Rand

	// parked is true while the hybrid scheduler is parked waiting for a
	// message, since parkedAt; wakeIdle only unblocks a parked scheduler.
	parked   bool
	parkedAt sim.Time
	// hstate is where the hybrid loop's next step takes it up.
	hstate uint8
	// stealPending is true from a steal-request send until its reply
	// handler runs; it closes the window where the reply lands while the
	// scheduler is still flushing toward its park.
	stealPending bool
	// idleFails counts fruitless steal rounds since the last dispatch; it
	// sets the next backoff (see nextBackoff).
	idleFails uint
	// nextProbe gates remote steal sweeps in the shared-memory idle loop;
	// the loop keeps polling its own (local, cached) queues in between.
	nextProbe sim.Time
	// item is the ready item dispatch hands to its step (AtWake), and
	// running the thread the step started or resumed on it.
	item    queueItem
	running *Thread

	// Shared-memory mode queues (in simulated memory).
	taskq *smQueue
	wakeq *smQueue

	// Hybrid mode queues (node-local, handler-shared).
	htaskq hybridQueue
	hwakeq hybridQueue

	// scratch is the marshaling buffer a steal reply gathers its
	// descriptor words from.
	scratch mem.Addr
	// stealOps is the steal request's one operand, the thief's id.
	stealOps [1]uint64
}

func newCore(rt *RT, id int) *core {
	c := &core{rt: rt, id: id, node: rt.M.Nodes[id], rng: rng(id)}
	if rt.Mode == ModeSharedMemory {
		c.taskq = newSMQueue(rt.M, id, queueCap)
		c.wakeq = newSMQueue(rt.M, id, 1024)
	}
	c.scratch = rt.M.Store.AllocOn(id, taskWords)
	c.stealOps[0] = uint64(id)
	return c
}

// boot starts the scheduler context.
func (c *core) boot() {
	body := c.loop
	if c.rt.Mode == ModeHybrid {
		body = c.hybridLoop
	}
	c.schedProc = c.rt.M.Spawn(c.id, c.rt.M.Eng.Now(), "sched", body)
}

// pushLocalBoot seeds the initial task before the schedulers run.
func (c *core) pushLocalBoot(t *Task) {
	if c.rt.Mode == ModeSharedMemory {
		t.desc = c.rt.M.Store.AllocOn(c.id, taskWords)
		t.home = c.id
		c.taskq.bootPush(c.rt.M, queueItem{task: t})
	} else {
		c.htaskq.handlerPush(queueItem{task: t})
	}
}

// pushTask makes a forked task available for execution (and theft).
func (c *core) pushTask(p *machine.Proc, t *Task) {
	if c.rt.Mode == ModeSharedMemory {
		t.materialize(p)
		c.taskq.push(p, queueItem{task: t})
	} else {
		c.htaskq.push(p, queueItem{task: t})
	}
}

// next pops local work: runnable threads first (finish in-flight work),
// then the newest task (depth-first).
func (c *core) next(p *machine.Proc) queueItem {
	if !c.wakeq.probeEmpty(p) {
		if it := c.wakeq.pop(p); !it.empty() {
			return it
		}
	}
	if !c.taskq.probeEmpty(p) {
		return c.taskq.pop(p)
	}
	return queueItem{}
}

// loop is the shared-memory scheduler's body. Its queue operations are
// coherent loads, stores and test-and-sets, any of which can miss, so it
// runs as a coroutine loop. The whole loop runs under an Idle attribution
// region: queue polling, stealing, backoff and context-switch overhead are
// scheduler time. The interval a dispatched thread runs is carved out by
// dispatch (the thread's own processor covers it).
func (c *core) loop(p *machine.Proc) {
	p.PushRegion(metrics.Idle)
	for !c.rt.done {
		it := c.next(p)
		if it.empty() {
			c.steal(p)
			continue
		}
		c.dispatch(p, it)
	}
}

// nextBackoff returns the idle loop's next delay after a fruitless steal
// round and advances the schedule: idleBackoff doubling per round up to 32
// times it (50, 100, 200, 400, 800, 1600, 1600, … cycles); dispatch
// restarts it. The cap balances two pathologies: back off too little and
// dozens of idle thieves keep every queue's metadata line shared, so each
// push pays a LimitLESS invalidation storm; back off too much and the
// divide-and-conquer unfold starves. 32 is the measured sweet spot of the
// shared-memory scheduler at 64 nodes.
func (c *core) nextBackoff() uint64 {
	d := uint64(idleBackoff) << c.idleFails
	if c.idleFails < 5 {
		c.idleFails++
	}
	return d
}

// idle spends d cycles of idle-loop time on the processor.
func (c *core) idle(p *machine.Proc, d uint64) {
	c.rt.M.St.Add(c.id, stats.IdleCycles, int64(d))
	p.Elapse(d)
	p.Flush()
}

// dispatch runs one ready item to completion or suspension for the
// shared-memory loop (the hybrid loop dispatches in hsDispatch). It
// flushes the switch cost, and the flush's wake starts or resumes the thread
// (AtWake) and leaves the scheduler parked until the thread hands the
// processor back.
func (c *core) dispatch(p *machine.Proc, it queueItem) {
	c.idleFails = 0
	p.Elapse(switchCycles)
	c.item = it
	p.FlushThen(c)
	c.handBack()
}

// handBack takes the processor back from the thread dispatch started or
// resumed, which suspended or finished. A finished thread's body has
// returned, so its record can serve the next dispatch.
func (c *core) handBack() {
	c.schedProc.PopRegion()
	th := c.running
	c.running = nil
	if th.finished {
		c.rt.putThread(th)
	}
}

// AtWake is dispatch's step: it starts or resumes the item's thread and
// leaves the scheduler parked until the hand-back, where the hybrid loop
// takes up again (hsHandBack). The park's interval belongs to the
// thread's processor, so the scheduler's park is unattributed: the step
// pushes NoBucket, and handBack pops it.
//
//alewife:hotpath
func (c *core) AtWake(ctx *sim.Context) bool {
	th := c.item.thread
	if th == nil {
		th = c.rt.getThread(c.item.task, c)
		c.rt.M.St.Emit(ctx.Now(), c.id, trace.KDispatch, th.id)
		th.start()
	} else {
		if th.core != c {
			panic(fmt.Sprintf("core: thread %d resumed on node %d, pinned to %d", th.id, c.id, th.core.id))
		}
		c.rt.M.St.Emit(ctx.Now(), c.id, trace.KDispatch, th.id)
		th.resume()
	}
	c.item, c.running = queueItem{}, th
	c.schedProc.PushRegion(metrics.NoBucket)
	if c.rt.Mode == ModeHybrid {
		c.hstate = hsHandBack
		ctx.ThenOnWake((*hybridStep)(c))
	}
	return false
}

// threadYield hands the processor back when a thread finishes (threadEnd)
// or suspends (suspendStep): the node's scheduler resumes.
func (c *core) threadYield() {
	c.schedProc.Ctx.Unblock()
}

// wakeIdle unblocks the scheduler if it is parked waiting for messages.
func (c *core) wakeIdle() {
	if c.parked {
		c.parked = false
		c.schedProc.Ctx.Unblock()
	}
}

// victim picks a steal target != self.
func (c *core) victim(round int) int {
	n := c.rt.Cores()
	if n == 1 {
		return c.id
	}
	if c.rt.Pol == StealScan {
		// Offset cycles through 1..n-1 so the scan never lands on self.
		return (c.id + 1 + round%(n-1)) % n
	}
	v := c.rng.Intn(n - 1)
	if v >= c.id {
		v++
	}
	return v
}

// steal attempts to obtain work from other nodes, then backs off.
func (c *core) steal(p *machine.Proc) {
	if c.rt.Cores() == 1 {
		c.idle(p, c.nextBackoff())
		return
	}
	c.stealSM(p)
}

// stealSM probes victims' queues directly through shared memory: a cheap
// head/tail read, then the locked steal — every access a remote coherence
// transaction. Remote sweeps back off exponentially while the idle loop
// keeps polling its own queues at the base period (local cached reads).
func (c *core) stealSM(p *machine.Proc) {
	if p.Ctx.Now() >= c.nextProbe {
		for i := 0; i < maxProbes && !c.rt.done; i++ {
			v := c.rt.cores[c.victim(i)]
			c.rt.M.St.Inc(c.id, stats.StealAttempts)
			var it queueItem
			if !v.taskq.probeEmpty(p) {
				it = v.taskq.stealPop(p)
			}
			if it.empty() {
				c.rt.M.St.Inc(c.id, stats.StealFailures)
				continue
			}
			c.rt.M.St.Event(c.id, stats.ThreadsStolen, p.Ctx.Now(), trace.KSteal, uint64(v.id))
			c.dispatch(p, it)
			return
		}
		c.nextProbe = p.Ctx.Now() + c.nextBackoff()
	}
	// Poll period for the local queues.
	c.idle(p, idleBackoff)
}
