package core

import (
	"alewife/internal/machine"
	"alewife/internal/mem"
)

// Task is an unstarted unit of work: a body plus a descriptor in the
// creating node's memory. Creation is cheap and local (lazy task creation);
// communication costs are paid only if the task migrates.
//
// A forked task (TC.Fork) keeps its child function and the future that
// function's result resolves as fields, not inside a wrapping closure, and
// its record is recycled once the thread it started finishes. Tasks handed
// to callers — NewInvokeTask's and Run's root task — are never recycled.
type Task struct {
	id    uint64
	fn    func(*TC)        // body of a task built by newTask
	child func(*TC) uint64 // body of a forked task, resolving fut
	fut   *Future          // nil unless forked
	desc  mem.Addr         // taskWords descriptor words in the creating node's memory
	home  int              // creating node
}

// newTask registers a closure as a schedulable task without allocating its
// simulated descriptor (boot tasks, handler-built tasks carried by value).
func (rt *RT) newTask(fn func(*TC)) *Task {
	t := &Task{id: rt.newTaskID(), fn: fn, home: -1}
	rt.tasks[t.id] = t
	return t
}

// getTask registers a forked task, reusing a record from the free list
// (see putTask) when there is one.
func (rt *RT) getTask(child func(*TC) uint64, fut *Future) *Task {
	var t *Task
	if n := len(rt.freeTasks); n > 0 {
		t = rt.freeTasks[n-1]
		rt.freeTasks = rt.freeTasks[:n-1]
	} else {
		t = new(Task)
	}
	*t = Task{id: rt.newTaskID(), child: child, fut: fut, home: -1}
	rt.tasks[t.id] = t
	return t
}

// putTask returns a forked task whose thread finished to the free list.
// Its id was released when the thread started; dropping the child and the
// future keeps the idle record from pinning them.
func (rt *RT) putTask(t *Task) {
	t.child, t.fut = nil, nil
	rt.freeTasks = append(rt.freeTasks, t)
}

// run executes the task's body on tc.
func (t *Task) run(tc *TC) {
	if t.fut != nil {
		t.fut.Resolve(tc, t.child(tc))
		return
	}
	t.fn(tc)
}

// materialize writes the task descriptor into node-local memory, charging
// the creating processor; needed before a task can be stolen through
// shared memory.
func (t *Task) materialize(p *machine.Proc) {
	if t.desc != 0 {
		return
	}
	t.home = p.ID()
	t.desc = p.Store().AllocOn(t.home, taskWords)
	for w := 0; w < taskWords; w++ {
		p.Write(t.desc+mem.Addr(w), t.id)
	}
}

// TC is the thread context handed to every task body: the processor it is
// running on, the runtime, and the thread identity used for suspension.
//
// A TC is embedded in its Thread and, like the Thread, is valid only while
// its task runs: once the body returns, the record serves the next task
// dispatched. A body must not keep its TC past its return.
type TC struct {
	P  *machine.Proc
	RT *RT

	thread *Thread
	core   *core
}

// ID returns the node the thread is running on.
func (tc *TC) ID() int { return tc.P.ID() }

// Elapse charges compute cycles.
func (tc *TC) Elapse(n uint64) { tc.P.Elapse(n) }

// Fork creates a child task computing fn and makes it available for
// execution (locally queued; remote processors may steal it). It returns
// the future that fn's result resolves.
func (tc *TC) Fork(fn func(*TC) uint64) *Future {
	rt := tc.RT
	f := rt.NewFuture(tc.ID())
	t := rt.getTask(fn, f)
	tc.P.Elapse(forkCycles)
	tc.core.pushTask(tc.P, t)
	return f
}

// Call runs fn inline (no task creation) — what the sequential elaboration
// of a divide-and-conquer program does below the spawn cutoff.
func (tc *TC) Call(fn func(*TC) uint64) uint64 { return fn(tc) }
