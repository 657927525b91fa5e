package core

import (
	"alewife/internal/cmmu"
	"alewife/internal/machine"
)

// Remote thread invocation (Section 4.3): place a task on another
// processor's ready queue.
//
// Shared-memory: the invoker acquires the remote queue lock (at least one
// network round trip), writes the task descriptor and queue words through
// the coherence protocol, and unlocks; the invokee's idle loop discovers
// the task by polling its own queue.
//
// Message-passing: all the information needed to invoke the thread is
// marshaled into a single message, unpacked and queued atomically by the
// receiving processor's handler — synchronization and data in one packet.

// NewInvokeTask wraps fn as an invokable task.
func (rt *RT) NewInvokeTask(fn func(*TC)) *Task { return rt.newTask(fn) }

// Invoke places t on node dst's ready queue using the runtime's mode. The
// call returns as soon as the invoking processor is free (Tinvoker).
func (rt *RT) Invoke(p *machine.Proc, dst int, t *Task) {
	if rt.Mode == ModeHybrid {
		rt.invokeMP(p, dst, t)
	} else {
		rt.invokeSM(p, dst, t)
	}
}

// invokeSM enqueues through coherent shared memory.
func (rt *RT) invokeSM(p *machine.Proc, dst int, t *Task) {
	t.materialize(p)
	rt.cores[dst].taskq.push(p, queueItem{task: t})
}

// invokeMP marshals the task into one message.
func (rt *RT) invokeMP(p *machine.Proc, dst int, t *Task) {
	ops := make([]uint64, 1, 1+taskWords)
	ops[0] = t.id
	for w := 0; w < taskWords; w++ {
		ops = append(ops, t.id) // descriptor words ride in the packet
	}
	p.SendMessage(cmmu.Descriptor{Type: msgInvoke, Dst: dst, Ops: ops})
}
