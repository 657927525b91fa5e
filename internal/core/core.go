package core

import (
	"fmt"
	"math/rand"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/trace"
)

// core is one node's scheduler: the idle loop, the ready queues, and the
// work-stealing machinery. The shared-memory scheduler keeps its queues in
// coherent shared memory and polls (smStep); the hybrid scheduler keeps
// them local, manipulates them from message handlers, and parks while a
// steal request is outstanding (hybridStep).
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
	// hstate is where the hybrid loop's next step takes it up, and sstate
	// where the shared-memory loop's does.
	hstate uint8
	sstate uint8
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
	// round is the sweep's next victim probe, and victimID the node it
	// probes.
	round    int
	victimID int
	// item is the ready item dispatch hands to its step (AtWake), and
	// running the thread the step started or resumed on it.
	item    queueItem
	running *Thread

	// Shared-memory mode queues (in simulated memory), and the state of the
	// scheduler's operation on one of its own or a victim's.
	taskq *smQueue
	wakeq *smQueue
	op    queueOp

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
	body := c.smLoop
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
		t.publish(p, c.taskq)
	} else {
		c.htaskq.push(p, queueItem{task: t})
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
// leaves the scheduler parked until the hand-back, where the scheduler's
// loop takes up again (hsHandBack, ssHandBack). The park's interval
// belongs to the thread's processor, so the scheduler's park is
// unattributed: the step pushes NoBucket, and handBack pops it.
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
	} else {
		c.sstate = ssHandBack
		ctx.ThenOnWake((*smStep)(c))
	}
	return false
}

// threadYield hands the processor back when a thread finishes (threadEnd)
// or suspends (yieldStep): the wake runs the scheduler's hand-back step.
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
