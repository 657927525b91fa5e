package core

import (
	"testing"
	"testing/quick"

	"alewife/internal/machine"
	"alewife/internal/stats"
)

// queueHarness drives one smQueue from a single proc context.
type queueHarness struct {
	m *machine.Machine
	q *smQueue
}

func newQueueHarness() *queueHarness {
	m := machine.New(machine.DefaultConfig(2))
	return &queueHarness{m: m, q: newSMQueue(m, 0, 64)}
}

// drive runs fn on node `node` and drains the machine.
func (h *queueHarness) drive(node int, fn func(p *machine.Proc)) {
	h.m.Spawn(node, h.m.Eng.Now(), "q", fn)
	h.m.Run()
}

func mkTask(id uint64) *Task { return &Task{id: id} }

// The queue operations and the spin lock run as chains of steps; these
// helpers run one from a test body with RunStep, as the runtime's
// coroutine callers do, each with a state record of its own.

// queueOp runs one operation on q from p's body and returns its state.
func (q *smQueue) queueOp(p *machine.Proc, state uint8, it queueItem) *queueOp {
	o := new(queueOp)
	o.start(p, q, state, it, nil)
	p.Ctx.RunStep((*queueStep)(o))
	return o
}

func (q *smQueue) push(p *machine.Proc, it queueItem) { q.queueOp(p, qsPush, it) }

func (q *smQueue) pop(p *machine.Proc) queueItem { return q.queueOp(p, qsPop, queueItem{}).it }

func (q *smQueue) stealPop(p *machine.Proc) queueItem {
	return q.queueOp(p, qsSteal, queueItem{}).it
}

func (q *smQueue) probeEmpty(p *machine.Proc) bool {
	return q.queueOp(p, qsProbe, queueItem{}).empty()
}

// acquire takes l from p's body.
func (l *SpinLock) acquire(p *machine.Proc) {
	o := new(lockOp)
	o.start(p, l.addr, nil)
	p.Ctx.RunStep((*lockStep)(o))
}

func TestSMQueuePushPopLIFO(t *testing.T) {
	h := newQueueHarness()
	h.drive(0, func(p *machine.Proc) {
		for i := uint64(1); i <= 5; i++ {
			h.q.push(p, queueItem{task: mkTask(i)})
		}
		for i := uint64(5); i >= 1; i-- {
			it := h.q.pop(p)
			if it.task == nil || it.task.id != i {
				t.Errorf("pop got %v, want task %d", it, i)
			}
		}
		if it := h.q.pop(p); !it.empty() {
			t.Error("pop from empty queue returned item")
		}
	})
}

func TestSMQueueStealFIFO(t *testing.T) {
	h := newQueueHarness()
	h.drive(0, func(p *machine.Proc) {
		for i := uint64(1); i <= 3; i++ {
			h.q.push(p, queueItem{task: mkTask(i)})
		}
	})
	h.m.Spawn(1, h.m.Eng.Now(), "thief", func(p *machine.Proc) {
		for i := uint64(1); i <= 3; i++ {
			it := h.q.stealPop(p)
			if it.task == nil || it.task.id != i {
				t.Errorf("steal got %v, want task %d (oldest first)", it, i)
			}
		}
		if it := h.q.stealPop(p); !it.empty() {
			t.Error("steal from empty queue returned item")
		}
	})
	h.m.Run()
}

func TestSMQueueProbeEmpty(t *testing.T) {
	h := newQueueHarness()
	h.drive(0, func(p *machine.Proc) {
		if !h.q.probeEmpty(p) {
			t.Error("fresh queue not empty")
		}
		h.q.push(p, queueItem{task: mkTask(1)})
		if h.q.probeEmpty(p) {
			t.Error("queue with one item reads empty")
		}
		h.q.pop(p)
		if !h.q.probeEmpty(p) {
			t.Error("drained queue not empty")
		}
	})
}

func TestSMQueueThreadsNotStolen(t *testing.T) {
	h := newQueueHarness()
	th := &Thread{id: 99}
	h.drive(0, func(p *machine.Proc) {
		h.q.push(p, queueItem{thread: th})
		if it := h.q.stealPop(p); !it.empty() {
			t.Error("stole a pinned thread")
		}
		if it := h.q.pop(p); it.thread != th {
			t.Error("local pop lost the thread")
		}
	})
}

func TestSMQueueOverflowPanics(t *testing.T) {
	h := newQueueHarness()
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	h.drive(0, func(p *machine.Proc) {
		for i := uint64(0); i < 100; i++ { // cap is 64
			h.q.push(p, queueItem{task: mkTask(i)})
		}
	})
}

func TestSMQueueBootPush(t *testing.T) {
	h := newQueueHarness()
	h.q.bootPush(h.m, queueItem{task: mkTask(7)})
	h.drive(0, func(p *machine.Proc) {
		if h.q.probeEmpty(p) {
			t.Error("boot-pushed queue reads empty")
		}
		it := h.q.pop(p)
		if it.task == nil || it.task.id != 7 {
			t.Errorf("pop got %v, want boot task", it)
		}
	})
}

// Property: any interleaved sequence of pushes and local pops preserves the
// Go mirror / simulated head-tail agreement and LIFO order.
func TestPropertySMQueueMirrorAgreement(t *testing.T) {
	f := func(ops []bool) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		h := newQueueHarness()
		ok := true
		h.drive(0, func(p *machine.Proc) {
			var model []uint64
			next := uint64(1)
			for _, push := range ops {
				if push {
					h.q.push(p, queueItem{task: mkTask(next)})
					model = append(model, next)
					next++
				} else {
					it := h.q.pop(p)
					if len(model) == 0 {
						if !it.empty() {
							ok = false
						}
					} else {
						want := model[len(model)-1]
						model = model[:len(model)-1]
						if it.task == nil || it.task.id != want {
							ok = false
						}
					}
				}
			}
			// Simulated head/tail must agree with the mirror length.
			head := h.m.Store.Read(h.q.meta)
			tail := h.m.Store.Read(h.q.meta + 1)
			if tail-head != uint64(len(model)) || len(h.q.items) != len(model) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent pushers/poppers/thieves never lose or duplicate a
// task.
func TestPropertySMQueueNoLostTasks(t *testing.T) {
	f := func(seed uint8) bool {
		m := machine.New(machine.DefaultConfig(4))
		q := newSMQueue(m, 0, 256)
		const n = 30
		seen := map[uint64]int{}
		// Producer on node 0.
		m.Spawn(0, 0, "prod", func(p *machine.Proc) {
			for i := uint64(1); i <= n; i++ {
				q.push(p, queueItem{task: mkTask(i)})
				p.Elapse(uint64(seed%7) + 1)
				p.Flush()
			}
		})
		// Thieves on nodes 1..3.
		for node := 1; node < 4; node++ {
			m.Spawn(node, 0, "thief", func(p *machine.Proc) {
				for k := 0; k < 40; k++ {
					it := q.stealPop(p)
					if it.task != nil {
						seen[it.task.id]++
					}
					p.Elapse(13)
					p.Flush()
				}
			})
		}
		m.Run()
		// Drain the remainder locally.
		m.Spawn(0, m.Eng.Now(), "drain", func(p *machine.Proc) {
			for {
				it := q.pop(p)
				if it.empty() {
					return
				}
				seen[it.task.id]++
			}
		})
		m.Run()
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridQueueHandlerOps(t *testing.T) {
	var q hybridQueue
	q.handlerPush(queueItem{task: mkTask(1)})
	q.handlerPush(queueItem{task: mkTask(2)})
	q.handlerPush(queueItem{thread: &Thread{id: 9}})
	// Steal takes the oldest task.
	if it := q.handlerStealPop(); it.task == nil || it.task.id != 1 {
		t.Fatalf("handler steal got %+v, want task 1", it)
	}
	// Steal refuses when a thread heads the queue? Here task 2 heads it.
	if it := q.handlerStealPop(); it.task == nil || it.task.id != 2 {
		t.Fatalf("handler steal got %+v, want task 2", it)
	}
	if it := q.handlerStealPop(); !it.empty() {
		t.Fatalf("stole a thread: %+v", it)
	}
}

func TestSpinLockBackoffCounters(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	l := NewSpinLock(m, 0)
	m.Spawn(0, 0, "holder", func(p *machine.Proc) {
		l.acquire(p)
		p.Elapse(500)
		p.Flush()
		l.Release(p)
	})
	m.Spawn(1, 10, "waiter", func(p *machine.Proc) {
		l.acquire(p)
		l.Release(p)
	})
	m.Run()
	if m.St.Global.Get(stats.LockAcquisitions) != 2 {
		t.Fatalf("acquisitions = %d, want 2", m.St.Global.Get(stats.LockAcquisitions))
	}
	if m.St.Global.Get(stats.LockSpins) == 0 {
		t.Fatal("contended acquire recorded no spins")
	}
}

// An SM queue operation runs as a chain of steps on its own state record,
// and on a warmed machine it allocates nothing, on the hit path or the
// miss path: nodes 0 and 1 take turns on node 0's queue, so each one's
// accesses miss on the lines the other took.
func TestSMQueueOpAllocs(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	q := newSMQueue(m, 0, 1024)
	task := &Task{id: 1, desc: m.Store.AllocOn(0, taskWords)}
	type runner struct {
		p     *machine.Proc
		o     queueOp
		state uint8
	}
	var rs [2]runner
	stop := false
	for node := range rs {
		r := &rs[node]
		r.p = m.Spawn(node, 0, "q", func(p *machine.Proc) {
			for p.Ctx.Block(); !stop; p.Ctx.Block() {
				r.o.start(p, q, r.state, queueItem{task: task}, nil)
				p.Ctx.RunStep((*queueStep)(&r.o))
			}
		})
	}
	op := func(node int, state uint8) {
		rs[node].state = state
		rs[node].p.Ctx.Unblock()
		m.Eng.Run()
	}
	cycle := func() {
		op(1, qsPush)
		op(0, qsProbe)
		op(0, qsPop)
		op(1, qsPush)
		op(1, qsProbe)
		op(0, qsPop)
	}
	m.Eng.Run()
	for k := 0; k < 10; k++ {
		cycle()
	}
	misses := m.St.Global.Get(stats.CacheMisses) + m.St.Global.Get(stats.CacheUpgrades)
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("%.2f allocations per push, probe and pop, want 0", allocs/6)
	}
	if m.St.Global.Get(stats.CacheMisses)+m.St.Global.Get(stats.CacheUpgrades) == misses {
		t.Error("no queue operation missed")
	}
	if len(q.items) != 0 || rs[0].o.it.task != task {
		t.Fatalf("%d items left, last pop took %+v: the pops did not take the pushes", len(q.items), rs[0].o.it)
	}

	// Steals take the head, so fill the queue first: the mirror only
	// shrinks while they run. A steal is the first reader of the slot a
	// push wrote, and a line's first sharing grows its directory entry's
	// sharer list, so one pass over every slot warms the queue first.
	q = newSMQueue(m, 0, 128)
	steal := func() {
		op(1, qsSteal)
		op(0, qsSteal)
	}
	for k := 0; k < int(q.cap); k++ {
		op(k%2, qsPush)
	}
	for k := 0; k < int(q.cap)/2; k++ {
		steal()
	}
	for k := 0; k < 2*(runs+1); k++ {
		op(k%2, qsPush)
	}
	if allocs := testing.AllocsPerRun(runs, steal); allocs != 0 {
		t.Errorf("%.2f allocations per steal, want 0", allocs/2)
	}
	if len(q.items) != 0 || rs[0].o.it.task != task {
		t.Fatalf("%d items left after the steals", len(q.items))
	}
	stop = true
	op(0, qsProbe)
	op(1, qsProbe)
	if m.Eng.Live() != 0 {
		t.Fatal("a queue runner did not finish")
	}
}
