package core

import (
	"fmt"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
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

// queueOp is one operation on an smQueue, run as a chain of steps
// (queueStep) on processor p: a probe of the head/tail line, or a push, a
// pop or a steal under the queue's lock, each access a coherent load or
// store that may miss. p pays every memory cost: local hits for the owner,
// remote misses for anyone else. The operation lives in the record whose
// processor runs it: the core for its scheduler's probes, pops and
// steals, a Task for the push that makes it stealable, a Thread for the
// wake-queue pushes of the futures it resolves.
type queueOp struct {
	lk    lockOp
	p     *machine.Proc
	q     *smQueue
	state uint8
	// it is the item a push appends, or the one a pop or steal took
	// (empty when it found none).
	it         queueItem
	head, tail uint64
	// w is the next descriptor word a steal reads.
	w int
	// next runs once the operation is done; nil resumes p's body.
	next sim.AtWake
}

// The points of a queue operation a wake takes up; each but the first of
// an operation follows one of its accesses.
const (
	qsProbe       uint8 = iota // read the head
	qsProbeHead                // read the tail
	qsProbeTail                // done: empty reports head == tail
	qsPop                      // lock the queue
	qsPopLocked                // read the head
	qsPopHead                  // read the tail
	qsPopTail                  // empty: unlock; else read the tail slot
	qsPopSlot                  // store the new tail
	qsPopped                   // take the item and unlock
	qsSteal                    // lock the queue
	qsStealLocked              // read the head
	qsStealHead                // read the tail
	qsStealTail                // nothing stealable: unlock; else read the head slot
	qsStealDesc                // read the stolen task's descriptor, a word a step
	qsStolen                   // unlock
	qsPush                     // lock the queue
	qsPushLocked               // read the tail
	qsPushTail                 // read the head
	qsPushHead                 // store the item's slot
	qsPushSlot                 // store the new tail
	qsPushed                   // mirror the item and unlock
	qsUnlocked                 // done
)

// start readies the operation that begins at state on q, whose end runs
// next. A step goes on with run; a body runs the chain with
// p.Ctx.RunStep((*queueStep)(o)).
func (o *queueOp) start(p *machine.Proc, q *smQueue, state uint8, it queueItem, next sim.AtWake) {
	o.p, o.q, o.state, o.it, o.next = p, q, state, it, next
}

// run runs the operation that begins at state on q inside p's running
// step. It reports false when the operation completed inline, and the
// step goes on; otherwise the chain is armed, the calling step returns
// false, and next runs once the operation is done. Either way the result
// is in o: empty for a probe, it for a pop or steal.
//
//alewife:hotpath
func (o *queueOp) run(p *machine.Proc, q *smQueue, state uint8, it queueItem, next sim.AtWake) bool {
	o.start(p, q, state, it, next)
	return (*queueStep)(o).run()
}

// empty reports what a finished probe read: the queue's head and tail
// were equal.
func (o *queueOp) empty() bool { return o.head == o.tail }

// queueStep is a queueOp's step, a type of its own so that AtWake is not a
// method of queueOp.
type queueStep queueOp

// run takes the operation from its state to its end, and reports true when
// it armed a wait instead. Each state reads the value of the access before
// it, if it needs one, and takes the next access:
//
//	probe: head, tail
//	pop:   lock, head, tail, [tail slot, tail-1 → tail], unlock
//	steal: lock, head, tail, [head slot, taskWords descriptor words, head+1 → head], unlock
//	push:  lock, tail, head, item → slot, tail+1 → tail, unlock
//
// Local pops take the tail (LIFO, depth-first like lazy task creation);
// steals take the head (oldest task, the biggest remaining chunk of the
// tree). Only unstarted tasks are stealable; a thread at the head makes
// the steal fail (threads are pinned, and in practice they only ever sit
// in wake queues, which are never steal targets).
//
//alewife:hotpath
func (s *queueStep) run() bool {
	p, q := s.p, s.q
	for {
		var armed bool
		switch s.state {
		case qsProbe:
			s.state = qsProbeHead
			armed = p.StepRead(q.meta, s)
		case qsProbeHead:
			s.head = p.Val()
			s.state = qsProbeTail
			armed = p.StepRead(q.meta+1, s)
		case qsProbeTail:
			s.tail = p.Val()
			return false

		case qsPop:
			s.state = qsPopLocked
			armed = s.lk.acquire(p, q.lock.addr, s)
		case qsPopLocked:
			s.state = qsPopHead
			armed = p.StepRead(q.meta, s)
		case qsPopHead:
			s.head = p.Val()
			s.state = qsPopTail
			armed = p.StepRead(q.meta+1, s)
		case qsPopTail:
			s.tail = p.Val()
			if s.head == s.tail {
				s.it = queueItem{}
				armed = s.unlock()
				break
			}
			s.state = qsPopSlot
			armed = p.StepRead(q.slots+mem.Addr((s.tail-1)%q.cap), s)
		case qsPopSlot:
			s.state = qsPopped
			armed = p.StepWrite(q.meta+1, s.tail-1, s)
		case qsPopped:
			n := len(q.items) - 1
			s.it = q.items[n]
			q.items = q.items[:n]
			armed = s.unlock()

		case qsSteal:
			s.state = qsStealLocked
			armed = s.lk.acquire(p, q.lock.addr, s)
		case qsStealLocked:
			s.state = qsStealHead
			armed = p.StepRead(q.meta, s)
		case qsStealHead:
			s.head = p.Val()
			s.state = qsStealTail
			armed = p.StepRead(q.meta+1, s)
		case qsStealTail:
			s.tail = p.Val()
			if s.head == s.tail || q.items[0].task == nil {
				s.it = queueItem{}
				armed = s.unlock()
				break
			}
			s.it, s.w = q.items[0], 0
			s.state = qsStealDesc
			armed = p.StepRead(q.slots+mem.Addr(s.head%q.cap), s)
		case qsStealDesc:
			if s.w < taskWords {
				s.w++
				armed = p.StepRead(s.it.task.desc+mem.Addr(s.w-1), s)
				break
			}
			q.items = q.items[1:]
			s.state = qsStolen
			armed = p.StepWrite(q.meta, s.head+1, s)
		case qsStolen:
			armed = s.unlock()

		case qsPush:
			s.state = qsPushLocked
			armed = s.lk.acquire(p, q.lock.addr, s)
		case qsPushLocked:
			s.state = qsPushTail
			armed = p.StepRead(q.meta+1, s)
		case qsPushTail:
			s.tail = p.Val()
			s.state = qsPushHead
			armed = p.StepRead(q.meta, s)
		case qsPushHead:
			if s.tail-p.Val() >= q.cap {
				panic(fmt.Sprintf("core: ready queue on node %d overflow (cap %d)", q.owner, q.cap))
			}
			s.state = qsPushSlot
			armed = p.StepWrite(q.slots+mem.Addr(s.tail%q.cap), s.it.ref(), s)
		case qsPushSlot:
			s.state = qsPushed
			armed = p.StepWrite(q.meta+1, s.tail+1, s)
		case qsPushed:
			q.items = append(q.items, s.it)
			armed = s.unlock()

		case qsUnlocked:
			return false
		}
		if armed {
			return true
		}
	}
}

// unlock releases the queue's lock (a plain store; the line is
// exclusively held), the operation's last access.
//
//alewife:hotpath
func (s *queueStep) unlock() bool {
	s.state = qsUnlocked
	return s.p.StepWrite(s.q.lock.addr, 0, s)
}

// AtWake takes the operation on from its wake and runs its successor once
// it is done.
//
//alewife:hotpath
func (s *queueStep) AtWake(c *sim.Context) bool {
	if s.run() {
		return false
	}
	return then(s.next, c)
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
