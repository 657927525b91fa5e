package core

import (
	"alewife/internal/cmmu"
	"alewife/internal/mem"
	"alewife/internal/metrics"
)

// Future is a single-assignment cell in shared memory. Touching an
// unresolved future suspends the thread (lazy task creation semantics);
// resolving wakes the waiters.
//
// The two runtime modes differ exactly where the paper says they should:
//
//   - shared-memory: the resolver writes value+flag through the coherence
//     protocol and makes each waiter runnable by operating on the waiter's
//     ready queue with remote loads/stores — synchronization and data move
//     in separate coherence transactions;
//   - hybrid: the resolver still writes memory, but wakes each waiter with
//     one message that carries the value along — synchronization bundled
//     with data transfer (Section 2.2 of the paper).
type Future struct {
	rt   *RT
	home int
	cell mem.Addr // [flag, value] on one line
	lock SpinLock

	done    bool
	val     uint64
	waiters []*Thread
}

// NewFuture allocates a future whose cell lives on node home.
func (rt *RT) NewFuture(home int) *Future {
	return &Future{
		rt:   rt,
		home: home,
		cell: rt.M.Store.AllocOn(home, mem.LineWords),
		lock: SpinLock{addr: rt.M.Store.AllocOn(home, mem.LineWords)},
	}
}

// Resolved reports completion (host-side observation; charges nothing).
func (f *Future) Resolved() bool { return f.done }

// Value returns the resolved value (host-side observation).
func (f *Future) Value() uint64 { return f.val }

// Resolve stores v and wakes every waiter. Must be called exactly once.
func (f *Future) Resolve(tc *TC, v uint64) {
	p := tc.P
	f.lock.Acquire(p)
	p.Write(f.cell+1, v)
	p.Write(f.cell, 1)
	f.val = v
	f.done = true
	waiters := f.waiters
	f.waiters = nil
	f.lock.Release(p)

	for _, th := range waiters {
		if f.rt.Mode == ModeHybrid {
			// One message bundles the wake-up with the value; the handler
			// stores it into the thread before making it runnable.
			p.SendMessage(cmmu.Descriptor{
				Type: msgWake,
				Dst:  th.core.id,
				Ops:  []uint64{th.id, v},
			})
		} else {
			// Make the waiter runnable by remote-writing its node's wake
			// queue through shared memory.
			th.core.wakeq.push(p, queueItem{thread: th})
		}
	}
}

// Touch returns the future's value, suspending the calling thread if the
// future is not yet resolved.
func (f *Future) Touch(tc *TC) uint64 {
	p := tc.P
	if p.Read(f.cell) == 1 {
		return p.Read(f.cell + 1)
	}
	// The slow path's own cycles — lock, waiter registration — are time
	// spent waiting on the producer. The suspension park below is NOT
	// charged: while this thread is suspended the node's scheduler runs
	// other work (and records Idle if there is none), so charging the
	// park here would double-count the node's wall clock.
	p.PushRegion(metrics.SyncWait)
	defer p.PopRegion()
	f.lock.Acquire(p)
	if p.Read(f.cell) == 1 {
		f.lock.Release(p)
		return p.Read(f.cell + 1)
	}
	th := tc.thread
	if th == nil {
		panic("core: Touch of unresolved future outside a thread")
	}
	f.waiters = append(f.waiters, th)
	// The waiter record itself is a store into the future's memory.
	p.Write(f.cell+1, th.id)
	f.lock.Release(p)

	p.PushRegion(metrics.NoBucket)
	th.suspend()
	p.PopRegion()

	// Runnable again: the future is resolved.
	if th.hasWakeVal {
		th.hasWakeVal = false
		return th.wakeVal
	}
	return p.Read(f.cell + 1)
}
