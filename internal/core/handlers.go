package core

import (
	"alewife/internal/cmmu"
	"alewife/internal/stats"
)

// registerHandlers installs this core's runtime message handlers. Both
// modes register them, so the bulk-copy primitives also run on a
// shared-memory runtime.
func (c *core) registerHandlers() {
	cm := c.node.CMMU
	cm.Register(msgSteal, c.onSteal)
	cm.Register(msgTask, c.onTask)
	cm.Register(msgNoTask, c.onNoTask)
	cm.Register(msgWake, c.onWake)
	cm.Register(msgInvoke, c.onInvoke)
	cm.Register(msgBarArrive, c.onBarArrive)
	cm.Register(msgBarWake, c.onBarWake)
	cm.Register(msgCopy, c.onCopy)
	cm.Register(msgCopyAck, c.onCopyAck)
	cm.Register(msgCopyReq, c.onCopyReq)
}

// onSteal serves a steal request at the victim: pop the oldest local task
// and reply with everything needed to run it in one message, or decline.
func (c *core) onSteal(e *cmmu.Env) {
	e.ReadOps(1)
	thief := int(e.Ops[0])
	e.Elapse(handlerQueueOp)
	it := c.htaskq.handlerStealPop()
	if it.empty() {
		e.Reply(cmmu.Descriptor{Type: msgNoTask, Dst: thief})
		return
	}
	// All the information needed to run the thread is marshaled into a
	// single message (Section 4.3): a count and the task id as operands,
	// and the descriptor words gathered from the marshaling buffer by DMA.
	// The count is always 1; dropping it would shorten the message and
	// move the cycles of every hybrid steal.
	e.Elapse(queueOpCycles) // marshal the descriptor
	e.Reply(cmmu.Descriptor{
		Type:    msgTask,
		Dst:     thief,
		Ops:     []uint64{1, it.task.id},
		Regions: []cmmu.Region{{Base: c.scratch, Words: taskWords}},
	})
}

// onTask lands a migrated task at the thief and puts it straight into the
// local queue, atomically, inside the handler.
func (c *core) onTask(e *cmmu.Env) {
	e.ReadOps(2)
	t := c.rt.task(e.Ops[1])
	e.Elapse(handlerQueueOp)
	c.htaskq.handlerPush(queueItem{task: t})
	c.rt.M.St.Inc(c.id, stats.ThreadsStolen)
	c.stealPending = false
	c.wakeIdle()
}

// onNoTask records a declined steal.
func (c *core) onNoTask(e *cmmu.Env) {
	c.rt.M.St.Inc(c.id, stats.StealFailures)
	c.stealPending = false
	c.wakeIdle()
}

// onWake makes a suspended local thread runnable, delivering the future's
// value that rode along in the same message.
func (c *core) onWake(e *cmmu.Env) {
	e.ReadOps(2)
	th := c.rt.thread(e.Ops[0])
	th.wakeVal = e.Ops[1]
	th.hasWakeVal = true
	e.Elapse(handlerQueueOp)
	c.hwakeq.handlerPush(queueItem{thread: th})
	c.wakeIdle()
}

// onInvoke queues a remotely invoked task (message-passing remote thread
// invocation, sent only by a hybrid runtime): unpack and enqueue
// atomically, no locks, no round trips.
func (c *core) onInvoke(e *cmmu.Env) {
	e.ReadOps(len(e.Ops))
	t := c.rt.task(e.Ops[0])
	e.Elapse(handlerQueueOp)
	c.htaskq.handlerPush(queueItem{task: t})
	c.wakeIdle()
}
