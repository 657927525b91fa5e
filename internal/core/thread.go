package core

import (
	"alewife/internal/machine"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Thread is a started task: a green thread with its own processor and
// simulation context, pinned to the node where it began executing (tasks
// migrate before they start, never after, as with lazy task creation).
//
// A Thread embeds the TC its task body receives and keeps its Proc. The
// record is valid only while its task runs: when the body returns, the
// scheduler that dispatched it puts it on the runtime's free list
// (putThread), and the next dispatch starts another task on the same
// record, Proc and context (getThread).
type Thread struct {
	TC
	id   uint64
	task *Task
	// body is the thread's processor body, built once per record.
	body func(*machine.Proc)

	// wakeVal carries a future's value delivered with the wake-up message
	// in hybrid mode (synchronization bundled with data).
	wakeVal    uint64
	hasWakeVal bool

	finished bool

	// op is the state of the chains of steps the thread runs on a future:
	// acquiring its lock (op.lk) and, in shared-memory mode, pushing each
	// of its waiters on their wake queues.
	op queueOp
}

// getThread readies a thread record for task t on core c, reusing one from
// the free list (see putThread) when there is one. A started task never
// travels again, so its id is released; the thread's id stays registered
// for wake messages until it finishes.
func (rt *RT) getThread(t *Task, c *core) *Thread {
	delete(rt.tasks, t.id)
	var th *Thread
	if n := len(rt.freeThreads); n > 0 {
		th = rt.freeThreads[n-1]
		rt.freeThreads = rt.freeThreads[:n-1]
	} else {
		th = &Thread{}
		th.RT, th.thread = rt, th
		th.body = th.run
	}
	th.id, th.task, th.core, th.finished = rt.newTaskID(), t, c, false
	rt.threads[th.id] = th
	rt.M.St.Inc(c.id, stats.ThreadsCreated)
	return th
}

// putThread returns a finished thread's record to the free list, and with
// it the task it ran when that task was forked.
func (rt *RT) putThread(th *Thread) {
	if t := th.task; t.fut != nil {
		rt.putTask(t)
	}
	th.task = nil
	rt.freeThreads = append(rt.freeThreads, th)
}

// start runs the thread on its processor, reusing the record's Proc and
// context; it runs until completion or first suspension, then hands the
// processor back to the scheduler.
func (th *Thread) start() {
	m := th.RT.M
	th.P = m.Respawn(th.P, th.core.id, m.Eng.Now(), "thr", th.id, th.body)
}

// run is the thread's processor body. Once the task has run, the thread
// has nothing left to do on its processor but pay its run-ahead, so the
// body returns at once and its final flush's wake is a threadEnd record;
// with nothing to flush, the thread ends here.
func (th *Thread) run(p *machine.Proc) {
	th.task.run(&th.TC)
	if !p.FlushFire((*threadEnd)(th)) {
		th.end()
	}
}

// end marks the thread finished and hands the processor back to the
// node's scheduler.
//
//alewife:hotpath
func (th *Thread) end() {
	th.finished = true
	delete(th.RT.threads, th.id)
	th.core.threadYield()
}

// threadEnd is the record that ends a thread at its final flush's wake, a
// type of its own so that Fire is not a method of Thread.
type threadEnd Thread

// Fire ends the thread.
//
//alewife:hotpath
func (s *threadEnd) Fire(uint32, uint64, uint64) { (*Thread)(s).end() }

// EventInfo implements sim.SinkInfo: the record belongs to the thread's
// node and touches only that node's scheduler.
func (s *threadEnd) EventInfo(uint32, uint64, uint64) (int32, uint64) {
	id := s.core.id
	return int32(id), uint64(id) | threadEndKeySalt
}

// threadEndKeySalt keeps threadEnd keys (node ids) apart from other sinks'
// key spaces, so that no key collision can claim independence.
const threadEndKeySalt = 3 << 62

// resume continues a suspended thread.
func (th *Thread) resume() {
	if th.finished {
		panic("core: resume of finished thread")
	}
	th.P.Ctx.Unblock()
}

// suspend parks the calling thread and gives the processor back to the
// node's scheduler, as a chain of two steps: the thread's flush
// (suspendStep), then, at its wake, the hand-back (yieldStep). The thread
// becomes runnable again when something enqueues it on its core's wake
// queue.
func (th *Thread) suspend() {
	th.P.Ctx.RunStep((*suspendStep)(th))
}

// suspendStep and yieldStep are Thread.suspend's steps, types of their own
// so that the steps are not methods of Thread.
type (
	suspendStep Thread
	yieldStep   Thread
)

// AtWake flushes the thread's run-ahead and hands the processor back once
// it has retired.
//
//alewife:hotpath
func (s *suspendStep) AtWake(c *sim.Context) bool {
	th := (*Thread)(s)
	if th.P.StepFlush((*yieldStep)(th)) {
		return false
	}
	return (*yieldStep)(th).AtWake(c)
}

// AtWake hands the processor back to the scheduler and leaves the thread
// parked.
//
//alewife:hotpath
func (s *yieldStep) AtWake(c *sim.Context) bool {
	th := (*Thread)(s)
	th.RT.M.St.Emit(c.Now(), th.core.id, trace.KSuspend, th.id)
	th.core.threadYield()
	return false
}
