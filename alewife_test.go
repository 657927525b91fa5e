package alewife_test

import (
	"testing"

	"alewife"
)

// Facade tests: the public API a downstream user sees.

func TestFacadeForkJoin(t *testing.T) {
	for _, mode := range []alewife.Mode{alewife.SharedMemory, alewife.Hybrid} {
		m := alewife.NewMachine(8)
		rt := alewife.NewRuntime(m, mode)
		sum, cycles := rt.Run(func(tc *alewife.TC) uint64 {
			a := tc.Fork(func(c *alewife.TC) uint64 { c.Elapse(100); return 20 })
			b := tc.Fork(func(c *alewife.TC) uint64 { c.Elapse(100); return 22 })
			return a.Touch(tc) + b.Touch(tc)
		})
		if sum != 42 {
			t.Fatalf("%v: sum = %d", mode, sum)
		}
		if cycles == 0 {
			t.Fatalf("%v: no simulated time elapsed", mode)
		}
	}
}

func TestFacadeSharedMemoryAndMessages(t *testing.T) {
	m := alewife.NewMachine(4)
	x := m.Store.AllocOn(2, 2)
	gotMsg := false
	m.Nodes[3].CMMU.Register(7, func(e *alewife.Env) { gotMsg = true })
	m.Spawn(0, 0, "w", func(p *alewife.Proc) {
		p.Write(x, 123)
		p.SendMessage(alewife.Descriptor{Type: 7, Dst: 3, Ops: []uint64{1}})
	})
	m.Run()
	if m.Store.Read(x) != 123 {
		t.Fatal("shared-memory write lost")
	}
	if !gotMsg {
		t.Fatal("message not delivered")
	}
}

func TestFacadeCopySM(t *testing.T) {
	m := alewife.NewMachine(2)
	src := m.Store.AllocOn(0, 8)
	dst := m.Store.AllocOn(1, 8)
	m.Store.Write(src+5, 55)
	m.Spawn(0, 0, "c", func(p *alewife.Proc) {
		alewife.CopySM(p, dst, src, 8, false)
	})
	m.Run()
	if m.Store.Read(dst+5) != 55 {
		t.Fatal("facade CopySM lost data")
	}
}

func TestFacadeCustomConfig(t *testing.T) {
	cfg := alewife.DefaultConfig(4)
	cfg.HWPointers = 2
	m, err := alewife.NewMachineWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Micros(66) != 2.0 {
		t.Fatal("Micros does not convert at Alewife's 33 MHz clock")
	}
	if m.Cfg.HWPointers != 2 {
		t.Fatal("custom hardware pointer count not applied")
	}
	cfg.CacheSets = 3
	if m, err := alewife.NewMachineWith(cfg); err == nil || m != nil {
		t.Fatalf("3 cache sets built a machine (%v, %v), want Validate's error", m, err)
	}
}

func TestFacadeBarrier(t *testing.T) {
	rt := alewife.NewRuntime(alewife.NewMachine(8), alewife.Hybrid)
	n := 0
	rt.SPMD(func(p *alewife.Proc) {
		rt.Barrier().Sync(p)
		n++
	})
	if n != 8 {
		t.Fatalf("%d nodes passed the barrier", n)
	}
}

func TestFacadeInvoke(t *testing.T) {
	rt := alewife.NewRuntime(alewife.NewMachine(4), alewife.Hybrid)
	v, _ := rt.Run(func(tc *alewife.TC) uint64 {
		f := rt.NewFuture(tc.ID())
		task := rt.NewInvokeTask(func(c *alewife.TC) { f.Resolve(c, 77) })
		rt.Invoke(tc.P, 2, task)
		return f.Touch(tc)
	})
	if v != 77 {
		t.Fatalf("invoke via facade = %d", v)
	}
}
