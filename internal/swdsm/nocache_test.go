package swdsm_test

import (
	"testing"

	"alewife/internal/machine"
	"alewife/internal/swdsm"
)

func newUncached(n int) (*machine.Machine, *swdsm.DSM) {
	m := machine.New(machine.DefaultConfig(n))
	return m, swdsm.New(m, true)
}

func TestUncachedValuesCorrect(t *testing.T) {
	m, d := newUncached(4)
	a := m.Store.AllocOn(3, 2)
	var r1, r2 uint64
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		d.Write(p, a, 11)
		r1 = d.Read(p, a)
		d.Write(p, a, 22)
		r2 = d.Read(p, a)
	})
	m.Run()
	if r1 != 11 || r2 != 22 {
		t.Fatalf("uncached round trips: %d %d", r1, r2)
	}
}

func TestUncachedRepeatWritesDoNotDeadlock(t *testing.T) {
	// The uncached client must release exclusivity after every write or
	// the home waits forever for its writeback.
	m, d := newUncached(2)
	a := m.Store.AllocOn(1, 2)
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		for i := uint64(1); i <= 10; i++ {
			d.Write(p, a, i)
		}
	})
	m.Run()
	if m.Store.Read(a) != 10 {
		t.Fatalf("final value %d", m.Store.Read(a))
	}
}

func TestUncachedEveryReadPaysFull(t *testing.T) {
	m, d := newUncached(2)
	a := m.Store.AllocOn(1, 2)
	var first, second uint64
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Flush()
		s := p.Ctx.Now()
		d.Read(p, a)
		p.Flush()
		first = p.Ctx.Now() - s
		s = p.Ctx.Now()
		d.Read(p, a)
		p.Flush()
		second = p.Ctx.Now() - s
	})
	m.Run()
	if second < first {
		t.Fatalf("second uncached read cheaper: %d vs %d", second, first)
	}
}

func TestUncachedMultiWriterSerializes(t *testing.T) {
	m, d := newUncached(4)
	a := m.Store.AllocOn(0, 2)
	for i := 1; i < 4; i++ {
		i := i
		m.Spawn(i, uint64(i)*2500, "w", func(p *machine.Proc) {
			d.Write(p, a, uint64(i*100))
		})
	}
	m.Run()
	if m.Store.Read(a) != 300 {
		t.Fatalf("final value %d, want 300 (last writer)", m.Store.Read(a))
	}
}
