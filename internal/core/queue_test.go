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
		l.Acquire(p)
		p.Elapse(500)
		p.Flush()
		l.Release(p)
	})
	m.Spawn(1, 10, "waiter", func(p *machine.Proc) {
		l.Acquire(p)
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
