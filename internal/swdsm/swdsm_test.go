package swdsm_test

import (
	"math/rand"
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/swdsm"
)

func newDSM(n int) (*machine.Machine, *swdsm.DSM) {
	m := machine.New(machine.DefaultConfig(n))
	return m, swdsm.New(m, false)
}

func TestLocalReadWrite(t *testing.T) {
	m, d := newDSM(2)
	a := m.Store.AllocOn(0, 2)
	var got uint64
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		d.Write(p, a, 123)
		got = d.Read(p, a)
	})
	m.Run()
	if got != 123 {
		t.Fatalf("local round trip = %d", got)
	}
}

func TestRemoteReadWrite(t *testing.T) {
	m, d := newDSM(4)
	a := m.Store.AllocOn(3, 2)
	var got uint64
	m.Spawn(0, 0, "w", func(p *machine.Proc) {
		d.Write(p, a, 456)
	})
	m.Spawn(1, 0, "r", func(p *machine.Proc) {
		p.Elapse(5000)
		p.Flush()
		got = d.Read(p, a)
	})
	m.Run()
	if got != 456 {
		t.Fatalf("remote value = %d", got)
	}
}

func TestHitPathChargesSoftwareCheck(t *testing.T) {
	m, d := newDSM(2)
	a := m.Store.AllocOn(1, 2)
	var hitCost uint64
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		d.Read(p, a) // install
		p.Flush()
		s := p.Ctx.Now()
		d.Read(p, a) // software hit
		p.Flush()
		hitCost = p.Ctx.Now() - s
	})
	m.Run()
	if want := uint64(swdsm.HitCycles); hitCost != want {
		t.Fatalf("software hit = %d cycles, want %d", hitCost, want)
	}
}

func TestInvalidationOnRemoteWrite(t *testing.T) {
	m, d := newDSM(4)
	a := m.Store.AllocOn(2, 2)
	var after uint64
	m.Spawn(0, 0, "reader", func(p *machine.Proc) {
		d.Read(p, a) // cache it
		p.Elapse(20000)
		p.Flush()
		after = d.Read(p, a) // must see the new value
	})
	m.Spawn(1, 0, "writer", func(p *machine.Proc) {
		p.Elapse(5000)
		p.Flush()
		d.Write(p, a, 999)
	})
	m.Run()
	if after != 999 {
		t.Fatalf("reader saw %d after invalidation, want 999", after)
	}
}

func TestWriteOwnershipMigrates(t *testing.T) {
	m, d := newDSM(4)
	a := m.Store.AllocOn(3, 2)
	m.Spawn(0, 0, "w1", func(p *machine.Proc) { d.Write(p, a, 1) })
	m.Spawn(1, 0, "w2", func(p *machine.Proc) {
		p.Elapse(5000)
		p.Flush()
		d.Write(p, a, 2)
	})
	m.Spawn(2, 0, "w3", func(p *machine.Proc) {
		p.Elapse(10000)
		p.Flush()
		d.Write(p, a, 3)
	})
	m.Run()
	if m.Store.Read(a) != 3 {
		t.Fatalf("final value = %d, want 3", m.Store.Read(a))
	}
}

func TestHomeLocalAccessWithRemoteOwner(t *testing.T) {
	// The home's own processor accesses a line currently owned remotely:
	// the software layer must recall it.
	m, d := newDSM(2)
	a := m.Store.AllocOn(0, 2)
	var got uint64
	m.Spawn(1, 0, "remote", func(p *machine.Proc) {
		d.Write(p, a, 77)
	})
	m.Spawn(0, 0, "home", func(p *machine.Proc) {
		p.Elapse(5000)
		p.Flush()
		got = d.Read(p, a)
	})
	m.Run()
	if got != 77 {
		t.Fatalf("home read = %d, want 77", got)
	}
}

func TestSoftwareSlowerThanHardware(t *testing.T) {
	// The package's raison d'etre: the same reference stream must cost
	// materially more through the software layer.
	const words = 128
	hw := func() uint64 {
		m := machine.New(machine.DefaultConfig(2))
		arr := m.Store.AllocOn(1, words)
		var cyc uint64
		m.Spawn(0, 0, "p", func(p *machine.Proc) {
			p.Flush()
			s := p.Ctx.Now()
			for i := uint64(0); i < words; i++ {
				p.Read(arr + mem.Addr(i))
			}
			p.Flush()
			cyc = p.Ctx.Now() - s
		})
		m.Run()
		return cyc
	}()
	sw := func() uint64 {
		m, d := newDSM(2)
		arr := m.Store.AllocOn(1, words)
		var cyc uint64
		m.Spawn(0, 0, "p", func(p *machine.Proc) {
			p.Flush()
			s := p.Ctx.Now()
			for i := uint64(0); i < words; i++ {
				d.Read(p, arr+mem.Addr(i))
			}
			p.Flush()
			cyc = p.Ctx.Now() - s
		})
		m.Run()
		return cyc
	}()
	t.Logf("stream of %d reads: hardware %d cycles, software %d cycles", words, hw, sw)
	if sw < hw*2 {
		t.Fatalf("software DSM suspiciously fast: %d vs hardware %d", sw, hw)
	}
}

func TestRandomTrafficValueCorrectness(t *testing.T) {
	// Fuzz: nodes take turns (disjoint in time) writing and reading shared
	// addresses; every read must observe the globally last write.
	const n = 4
	m, d := newDSM(n)
	rng := rand.New(rand.NewSource(7))
	addrs := make([]mem.Addr, 8)
	for i := range addrs {
		addrs[i] = m.Store.AllocOn(rng.Intn(n), 2)
	}
	last := make(map[mem.Addr]uint64)
	type op struct {
		node  int
		addr  mem.Addr
		write bool
		val   uint64
		want  uint64
	}
	var ops []op
	for k := 0; k < 200; k++ {
		a := addrs[rng.Intn(len(addrs))]
		o := op{node: rng.Intn(n), addr: a, write: rng.Intn(2) == 0, val: uint64(k + 1)}
		if o.write {
			last[a] = o.val
		} else {
			o.want = last[a]
		}
		ops = append(ops, o)
	}
	// Execute strictly serialized: each op in its own time window.
	for i, o := range ops {
		o := o
		m.Spawn(o.node, uint64(i)*3000, "op", func(p *machine.Proc) {
			if o.write {
				d.Write(p, o.addr, o.val)
			} else {
				if got := d.Read(p, o.addr); got != o.want {
					t.Errorf("op %d: read %d, want %d", i, got, o.want)
				}
			}
		})
	}
	m.Run()
}
