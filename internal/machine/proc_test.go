package machine_test

import (
	"math"
	"testing"
	"testing/quick"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
)

func TestProcNowIncludesRunAhead(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Elapse(100)
		if p.Now() != 100 {
			t.Errorf("Now() = %d before flush, want 100", p.Now())
		}
		if p.Ctx.Now() != 0 {
			t.Errorf("engine clock moved early: %d", p.Ctx.Now())
		}
		p.Flush()
		if p.Ctx.Now() != 100 {
			t.Errorf("engine clock after flush: %d", p.Ctx.Now())
		}
	})
	m.Run()
}

func TestFloatSpecialValues(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(1, 8)
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		vals := []float64{0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -3.75}
		for i, v := range vals {
			p.WriteF(a+mem.Addr(i), v)
		}
		for i, v := range vals {
			if got := p.ReadF(a + mem.Addr(i)); got != v {
				t.Errorf("float[%d] = %v, want %v", i, got, v)
			}
		}
		p.WriteF(a+6, math.NaN())
		if !math.IsNaN(p.ReadF(a + 6)) {
			t.Error("NaN did not round-trip")
		}
	})
	m.Run()
}

func TestSeqConsistentSameAnswers(t *testing.T) {
	// A lock-protected counter under both memory models gives the same
	// final value.
	run := func(sc bool) uint64 {
		cfg := machine.DefaultConfig(4)
		cfg.SeqConsistent = sc
		m := machine.New(cfg)
		lock := m.Store.AllocOn(0, 2)
		cnt := m.Store.AllocOn(0, 2)
		for i := 0; i < 4; i++ {
			m.Spawn(i, sim.Time(i), "p", func(p *machine.Proc) {
				for k := 0; k < 10; k++ {
					for p.TestSet(lock) != 0 {
						p.Elapse(7)
					}
					p.Write(cnt, p.Read(cnt)+1)
					p.Write(lock, 0)
				}
			})
		}
		m.Run()
		return m.Store.Read(cnt)
	}
	if a, b := run(false), run(true); a != b || a != 40 {
		t.Fatalf("weak=%d sc=%d, want 40/40", a, b)
	}
}

func TestMaskUnmaskIdempotent(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.UnmaskInterrupts() // unmask when not masked: no-op
		p.MaskInterrupts()
		p.MaskInterrupts() // double mask
		p.UnmaskInterrupts()
		if p.Node.CMMU.Masked() {
			t.Error("still masked")
		}
	})
	m.Run()
}

func TestPrefetchExclusiveViaProc(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(1, 2)
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Prefetch(a, true)
		p.Elapse(300)
		p.Flush()
		s := p.Now()
		p.Write(a, 5)
		p.Flush()
		if p.Now()-s > mem.CacheHit {
			t.Errorf("write after exclusive prefetch cost %d", p.Now()-s)
		}
	})
	m.Run()
}

// Property: FetchAdd from several nodes with random deltas conserves the
// total.
func TestPropertyFetchAddConserves(t *testing.T) {
	f := func(deltas []uint8) bool {
		if len(deltas) == 0 || len(deltas) > 24 {
			return true
		}
		m := machine.New(machine.DefaultConfig(4))
		a := m.Store.AllocOn(0, 2)
		var want uint64
		for i, d := range deltas {
			d := uint64(d)
			want += d
			m.Spawn(i%4, sim.Time(i), "p", func(p *machine.Proc) {
				p.FetchAdd(a, d)
			})
		}
		m.Run()
		return m.Store.Read(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBadNodeCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero nodes")
		}
	}()
	machine.New(machine.DefaultConfig(0))
}
