package core

import (
	"fmt"

	"alewife/internal/machine"
	"alewife/internal/mem"
)

// queueItem is one ready-queue entry: either an unstarted task (stealable)
// or a suspended thread made runnable again (pinned to its node).
type queueItem struct {
	task   *Task
	thread *Thread
}

func (it queueItem) empty() bool { return it.task == nil && it.thread == nil }

// smQueue is a ready queue laid out in its owner's shared memory, so that
// remote processors can operate on it with loads, stores and atomic ops —
// the shared-memory scheduler's central data structure. The Go-side items
// mirror the slot contents; every operation performs the simulated memory
// accesses a real implementation would, under the queue's spin lock.
//
// Layout: lock (own line); head,tail (one line, so a thief learns both in
// one read miss); then cap slot words. Local pops take the tail (LIFO,
// depth-first like lazy task creation); steals take the head (oldest task,
// the biggest remaining chunk of the tree).
type smQueue struct {
	owner int
	lock  *SpinLock
	meta  mem.Addr // [head, tail]
	slots mem.Addr
	cap   uint64
	items []queueItem // mirror, index parallel to head..tail
}

func newSMQueue(m *machine.Machine, node int, cap uint64) *smQueue {
	return &smQueue{
		owner: node,
		lock:  NewSpinLock(m, node),
		meta:  m.Store.AllocOn(node, mem.LineWords),
		slots: m.Store.AllocOn(node, cap),
		cap:   cap,
	}
}

// bootPush seeds the queue before any processor runs (no cycles charged).
func (q *smQueue) bootPush(m *machine.Machine, it queueItem) {
	tail := m.Store.Read(q.meta + 1)
	m.Store.Write(q.meta+1, tail+1)
	m.Store.Write(q.slots+mem.Addr(tail%q.cap), it.ref())
	q.items = append(q.items, it)
}

// ref is the word a slot holds for this item (a task or thread id).
func (it queueItem) ref() uint64 {
	if it.task != nil {
		return it.task.id
	}
	if it.thread != nil {
		return it.thread.id
	}
	return 0
}

// push appends at the tail under the lock; p pays all memory costs (local
// hits for the owner, remote misses for anyone else).
func (q *smQueue) push(p *machine.Proc, it queueItem) {
	q.lock.Acquire(p)
	tail := p.Read(q.meta + 1)
	if tail-p.Read(q.meta) >= q.cap {
		panic(fmt.Sprintf("core: ready queue on node %d overflow (cap %d)", q.owner, q.cap))
	}
	p.Write(q.slots+mem.Addr(tail%q.cap), it.ref())
	p.Write(q.meta+1, tail+1)
	q.items = append(q.items, it)
	q.lock.Release(p)
}

// pop removes from the tail (newest). Returns an empty item when the queue
// is empty.
func (q *smQueue) pop(p *machine.Proc) queueItem {
	q.lock.Acquire(p)
	head := p.Read(q.meta)
	tail := p.Read(q.meta + 1)
	if head == tail {
		q.lock.Release(p)
		return queueItem{}
	}
	_ = p.Read(q.slots + mem.Addr((tail-1)%q.cap))
	p.Write(q.meta+1, tail-1)
	it := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	q.lock.Release(p)
	return it
}

// probeEmpty is the cheap pre-check a thief does before locking: one read
// of the head/tail line.
func (q *smQueue) probeEmpty(p *machine.Proc) bool {
	head := p.Read(q.meta)
	tail := p.Read(q.meta + 1)
	return head == tail
}

// stealPop removes the oldest task under the lock; the thief reads the
// stolen task's descriptor out of the victim's memory. Only unstarted tasks
// are stealable; a thread at the head makes the steal fail (threads are
// pinned, and in practice they only ever sit in wake queues, which are
// never steal targets).
func (q *smQueue) stealPop(p *machine.Proc) queueItem {
	q.lock.Acquire(p)
	head := p.Read(q.meta)
	tail := p.Read(q.meta + 1)
	if head == tail || q.items[0].task == nil {
		q.lock.Release(p)
		return queueItem{}
	}
	it := q.items[0]
	_ = p.Read(q.slots + mem.Addr(head%q.cap))
	for w := 0; w < taskWords; w++ {
		_ = p.Read(it.task.desc + mem.Addr(w))
	}
	q.items = q.items[1:]
	p.Write(q.meta, head+1)
	q.lock.Release(p)
	return it
}

// hybridQueue is the hybrid scheduler's local ready queue: ordinary local
// memory manipulated with interrupts masked, since message handlers push
// and pop it too. Costs are charged as a flat in-cache operation.
type hybridQueue struct {
	items []queueItem
}

// push appends at the tail from processor context.
func (q *hybridQueue) push(p *machine.Proc, it queueItem) {
	p.MaskInterrupts()
	p.Elapse(queueOpCycles)
	q.items = append(q.items, it)
	p.UnmaskInterrupts()
}

// handlerPush appends from interrupt context (already atomic).
func (q *hybridQueue) handlerPush(it queueItem) { q.items = append(q.items, it) }

// handlerStealPop removes the oldest stealable task from interrupt context.
func (q *hybridQueue) handlerStealPop() queueItem {
	if len(q.items) == 0 || q.items[0].task == nil {
		return queueItem{}
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it
}
