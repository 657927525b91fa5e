package core

import (
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/stats"
)

func newRT(nodes int, mode Mode) *RT {
	return NewDefault(machine.New(machine.DefaultConfig(nodes)), mode)
}

func bothModes(t *testing.T, f func(t *testing.T, mode Mode)) {
	t.Helper()
	t.Run("shared-memory", func(t *testing.T) { f(t, ModeSharedMemory) })
	t.Run("hybrid", func(t *testing.T) { f(t, ModeHybrid) })
}

func TestRunTrivialRoot(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(4, mode)
		v, cyc := rt.Run(func(tc *TC) uint64 {
			tc.Elapse(100)
			return 42
		})
		if v != 42 {
			t.Fatalf("result = %d, want 42", v)
		}
		if cyc < 100 {
			t.Fatalf("cycles = %d, want >= 100", cyc)
		}
	})
}

func TestForkJoinLocal(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(1, mode)
		v, _ := rt.Run(func(tc *TC) uint64 {
			f1 := tc.Fork(func(*TC) uint64 { return 10 })
			f2 := tc.Fork(func(*TC) uint64 { return 32 })
			return f1.Touch(tc) + f2.Touch(tc)
		})
		if v != 42 {
			t.Fatalf("fork/join sum = %d, want 42", v)
		}
	})
}

// treeSum forks a binary tree of depth d and sums 1 at each leaf.
func treeSum(tc *TC, d int) uint64 {
	if d == 0 {
		tc.Elapse(20)
		return 1
	}
	f := tc.Fork(func(c *TC) uint64 { return treeSum(c, d-1) })
	r := treeSum(tc, d-1)
	return r + f.Touch(tc)
}

func TestForkJoinTreeParallel(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(8, mode)
		v, _ := rt.Run(func(tc *TC) uint64 { return treeSum(tc, 6) })
		if v != 64 {
			t.Fatalf("tree sum = %d, want 64", v)
		}
		if got := rt.M.St.Global.Get(stats.ThreadsStolen); got == 0 {
			t.Fatalf("%s: no steals happened on 8 nodes with 64 leaves", mode)
		}
	})
}

func TestParallelismSpeedsUp(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		run := func(nodes int) uint64 {
			rt := newRT(nodes, mode)
			_, cyc := rt.Run(func(tc *TC) uint64 { return treeSumWork(tc, 6, 2000) })
			return cyc
		}
		seq := run(1)
		par := run(8)
		t.Logf("%s: 1 node %d cycles, 8 nodes %d cycles (speedup %.1f)",
			mode, seq, par, float64(seq)/float64(par))
		if par*2 >= seq {
			t.Fatalf("8 nodes (%d) not at least 2x faster than 1 (%d)", par, seq)
		}
	})
}

func treeSumWork(tc *TC, d int, leaf uint64) uint64 {
	if d == 0 {
		tc.Elapse(leaf)
		return 1
	}
	f := tc.Fork(func(c *TC) uint64 { return treeSumWork(c, d-1, leaf) })
	r := treeSumWork(tc, d-1, leaf)
	return r + f.Touch(tc)
}

func TestFutureValueThroughMemory(t *testing.T) {
	// A future resolved on a remote node must deliver the right value in
	// both modes (memory path vs message-bundled path).
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(4, mode)
		v, _ := rt.Run(func(tc *TC) uint64 {
			fs := make([]*Future, 16)
			for i := range fs {
				k := uint64(i)
				fs[i] = tc.Fork(func(c *TC) uint64 {
					c.Elapse(500)
					return k * k
				})
			}
			var sum uint64
			for _, f := range fs {
				sum += f.Touch(tc)
			}
			return sum
		})
		want := uint64(0)
		for i := uint64(0); i < 16; i++ {
			want += i * i
		}
		if v != want {
			t.Fatalf("%s: sum = %d, want %d", mode, v, want)
		}
	})
}

func TestBarrierBothModes(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		const nodes, rounds = 16, 5
		rt := newRT(nodes, mode)
		counts := make([]int, nodes)
		rt.SPMD(func(p *machine.Proc) {
			for r := 0; r < rounds; r++ {
				p.Elapse(uint64(10 * (p.ID() + 1))) // skewed arrivals
				rt.Barrier().Sync(p)
				// After the barrier, every node must have completed the
				// same number of rounds.
				counts[p.ID()]++
				for _, c := range counts {
					if c < counts[p.ID()]-1 {
						t.Errorf("%s: node ahead of barrier: %v", mode, counts)
					}
				}
			}
		})
		for i, c := range counts {
			if c != rounds {
				t.Fatalf("%s: node %d did %d rounds, want %d", mode, i, c, rounds)
			}
		}
	})
}

func TestBarrierActuallySynchronizes(t *testing.T) {
	// One slow node: nobody may pass the barrier before it arrives.
	bothModes(t, func(t *testing.T, mode Mode) {
		const nodes = 8
		const slowArrive = 5000
		rt := newRT(nodes, mode)
		rt.SPMD(func(p *machine.Proc) {
			if p.ID() == 3 {
				p.Elapse(slowArrive)
			}
			rt.Barrier().Sync(p)
			p.Flush()
			if p.Ctx.Now() < slowArrive {
				t.Errorf("%s: node %d passed barrier at %d, before slow node arrived",
					mode, p.ID(), p.Ctx.Now())
			}
		})
	})
}

func TestHybridBarrierFasterThanSM(t *testing.T) {
	time := func(mode Mode) uint64 {
		rt := newRT(64, mode)
		return rt.SPMD(func(p *machine.Proc) {
			rt.Barrier().Sync(p)
		})
	}
	sm := time(ModeSharedMemory)
	mp := time(ModeHybrid)
	t.Logf("64-node barrier: SM=%d cycles, MP=%d cycles (ratio %.2f)", sm, mp, float64(sm)/float64(mp))
	if mp >= sm {
		t.Fatalf("message barrier (%d) not faster than shared-memory (%d)", mp, sm)
	}
}

func TestInvokeBothModes(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(4, mode)
		ran := -1
		v, _ := rt.Run(func(tc *TC) uint64 {
			f := rt.NewFuture(tc.ID())
			task := rt.NewInvokeTask(func(c *TC) {
				ran = c.ID()
				f.Resolve(c, 99)
			})
			rt.Invoke(tc.P, 2, task)
			return f.Touch(tc)
		})
		if v != 99 {
			t.Fatalf("%s: invoked result = %d, want 99", mode, v)
		}
		if ran != 2 {
			t.Fatalf("%s: task ran on node %d, want 2", mode, ran)
		}
	})
}

func TestCopySMMovesData(t *testing.T) {
	rt := newRT(4, ModeSharedMemory)
	const words = 32
	src := rt.M.Store.AllocOn(0, words)
	dst := rt.M.Store.AllocOn(3, words)
	for i := uint64(0); i < words; i++ {
		rt.M.Store.Write(src+mem.Addr(i), 7*i)
	}
	rt.M.Spawn(0, 0, "copier", func(p *machine.Proc) {
		CopySM(p, dst, src, words, false)
	})
	rt.M.Run()
	for i := uint64(0); i < words; i++ {
		if got := rt.M.Store.Read(dst + mem.Addr(i)); got != 7*i {
			t.Fatalf("dst[%d] = %d, want %d", i, got, 7*i)
		}
	}
}

func TestCopyMPMovesData(t *testing.T) {
	rt := newRT(4, ModeHybrid)
	const words = 32
	src := rt.M.Store.AllocOn(0, words)
	dst := rt.M.Store.AllocOn(3, words)
	for i := uint64(0); i < words; i++ {
		rt.M.Store.Write(src+mem.Addr(i), 3*i+1)
	}
	rt.M.Spawn(0, 0, "copier", func(p *machine.Proc) {
		rt.CopyMP(p, 3, dst, src, words)
		// Blocking push: data must be at the destination now.
		for i := uint64(0); i < words; i++ {
			if got := rt.M.Store.Read(dst + mem.Addr(i)); got != 3*i+1 {
				t.Errorf("dst[%d] = %d after CopyMP returned", i, got)
			}
		}
	})
	rt.M.Run()
}

func TestFetchMPPullsData(t *testing.T) {
	rt := newRT(4, ModeHybrid)
	const words = 16
	src := rt.M.Store.AllocOn(2, words)
	dst := rt.M.Store.AllocOn(0, words)
	for i := uint64(0); i < words; i++ {
		rt.M.Store.Write(src+mem.Addr(i), 1000+i)
	}
	rt.M.Spawn(0, 0, "puller", func(p *machine.Proc) {
		rt.FetchMP(p, 2, dst, src, words)
		for i := uint64(0); i < words; i++ {
			if got := p.Read(dst + mem.Addr(i)); got != 1000+i {
				t.Errorf("dst[%d] = %d after FetchMP", i, got)
			}
		}
	})
	rt.M.Run()
}

func TestCopyMPFasterForLargeBlocks(t *testing.T) {
	// Figure 7's headline: message DMA beats the load/store loop for
	// big blocks.
	const words = 512 // 4 KB
	smTime := func() uint64 {
		rt := newRT(4, ModeSharedMemory)
		src := rt.M.Store.AllocOn(0, words)
		dst := rt.M.Store.AllocOn(3, words)
		var cyc uint64
		rt.M.Spawn(0, 0, "c", func(p *machine.Proc) {
			p.Flush()
			s := p.Ctx.Now()
			CopySM(p, dst, src, words, false)
			cyc = p.Ctx.Now() - s
		})
		rt.M.Run()
		return cyc
	}()
	mpTime := func() uint64 {
		rt := newRT(4, ModeHybrid)
		src := rt.M.Store.AllocOn(0, words)
		dst := rt.M.Store.AllocOn(3, words)
		var cyc uint64
		rt.M.Spawn(0, 0, "c", func(p *machine.Proc) {
			p.Flush()
			s := p.Ctx.Now()
			rt.CopyMP(p, 3, dst, src, words)
			cyc = p.Ctx.Now() - s
		})
		rt.M.Run()
		return cyc
	}()
	t.Logf("4KB copy: SM=%d cycles MP=%d cycles (ratio %.2f)", smTime, mpTime, float64(smTime)/float64(mpTime))
	if mpTime >= smTime {
		t.Fatalf("MP copy (%d) not faster than SM (%d) at 4KB", mpTime, smTime)
	}
}

func TestPrefetchingCopySlower(t *testing.T) {
	// Figure 7's inversion: the prefetching copy loop is slower than the
	// plain one because prefetched destination lines need upgrades.
	const words = 512
	run := func(prefetch bool) uint64 {
		rt := newRT(4, ModeSharedMemory)
		src := rt.M.Store.AllocOn(0, words)
		dst := rt.M.Store.AllocOn(3, words)
		var cyc uint64
		rt.M.Spawn(0, 0, "c", func(p *machine.Proc) {
			p.Flush()
			s := p.Ctx.Now()
			CopySM(p, dst, src, words, prefetch)
			cyc = p.Ctx.Now() - s
		})
		rt.M.Run()
		return cyc
	}
	plain := run(false)
	pf := run(true)
	t.Logf("4KB copy: plain=%d prefetch=%d (ratio %.2f)", plain, pf, float64(pf)/float64(plain))
	if pf <= plain {
		t.Fatalf("prefetching copy (%d) not slower than plain (%d)", pf, plain)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	l := NewSpinLock(m, 0)
	counter := m.Store.AllocOn(0, mem.LineWords)
	for i := 0; i < 4; i++ {
		m.Spawn(i, uint64(i), "locker", func(p *machine.Proc) {
			for k := 0; k < 20; k++ {
				l.acquire(p)
				v := p.Read(counter)
				p.Elapse(3)
				p.Write(counter, v+1)
				l.Release(p)
				p.Elapse(7)
			}
		})
	}
	m.Run()
	if got := m.Store.Read(counter); got != 80 {
		t.Fatalf("counter = %d, want 80", got)
	}
}

func TestStealPolicies(t *testing.T) {
	for _, pol := range []StealPolicy{StealRandom, StealScan} {
		for _, mode := range []Mode{ModeSharedMemory, ModeHybrid} {
			rt := New(machine.New(machine.DefaultConfig(4)), mode, pol)
			v, _ := rt.Run(func(tc *TC) uint64 { return treeSum(tc, 5) })
			if v != 32 {
				t.Fatalf("mode=%v pol=%v: sum=%d want 32", mode, pol, v)
			}
		}
	}
}

func TestRunTwice(t *testing.T) {
	// The machine is single-shot per run, but a fresh runtime on a fresh
	// machine must behave identically — determinism check.
	run := func() uint64 {
		rt := newRT(4, ModeHybrid)
		_, cyc := rt.Run(func(tc *TC) uint64 { return treeSum(tc, 5) })
		return cyc
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic runtime: %d vs %d cycles", a, b)
	}
}
