package machine_test

import (
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// An access that flushes run-ahead cycles and then misses runs as a chain
// of steps from the processor's body (Proc.miss, sim.Context.RunStep): its
// first step takes the flush, and the flush's wake begins the miss inside
// the dispatch loop and parks the processor on the fill. On a warmed
// 2-node machine that path, with the protocol traffic the miss sets off,
// allocates nothing. Three lines homed on node 1 share one 2-way set of
// node 0's cache, so every access misses; the kind of access rotates over
// loads, stores and fetch-and-adds.
func TestMissChainAllocs(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	m := machine.New(cfg)
	stride := mem.Addr(cfg.CacheSets * mem.LineWords)
	base := m.Store.AllocOn(1, uint64(3*stride))
	lines := []mem.Addr{base, base + stride, base + 2*stride}
	stop, i := false, 0
	p := m.Spawn(0, 0, "acc", func(p *machine.Proc) {
		for !stop {
			p.Elapse(10)
			a := lines[i%len(lines)]
			switch i / len(lines) % 3 {
			case 0:
				p.Read(a)
			case 1:
				p.Write(a, uint64(i))
			default:
				p.FetchAdd(a, 1)
			}
			i++
			p.Ctx.Block()
		}
	})
	access := func() {
		p.Ctx.Unblock()
		m.Eng.Run()
	}
	m.Eng.Run()
	for k := 0; k < 30; k++ {
		access()
	}
	misses, work := m.St.Global.Get(stats.CacheMisses), m.Eng.Work()
	const runs = 90
	if allocs := testing.AllocsPerRun(runs, access); allocs != 0 {
		t.Errorf("%.2f allocations per access that flushes and misses, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call.
	if got := m.St.Global.Get(stats.CacheMisses) - misses; got != runs+1 {
		t.Errorf("%d misses over %d accesses: not every access missed", got, runs+1)
	}
	if got := m.Eng.Work().Absorbed - work.Absorbed; got != runs+1 {
		t.Errorf("%d wakes absorbed over %d accesses, want one per access", got, runs+1)
	}
	stop = true
	access()
	if m.Eng.Live() != 0 {
		t.Fatal("the accessing processor did not finish")
	}
}

// stepMiss takes one step-form access in a chain and resumes the
// processor: a load, a store or a test-and-set, by turns.
type stepMiss struct {
	p       *machine.Proc
	a       mem.Addr
	i       int
	started bool
}

func (s *stepMiss) AtWake(*sim.Context) bool {
	if s.started {
		return true
	}
	s.started = true
	var armed bool
	switch s.i % 3 {
	case 0:
		armed = s.p.StepRead(s.a, s)
	case 1:
		armed = s.p.StepWrite(s.a, uint64(s.i), s)
	default:
		armed = s.p.StepTestSet(s.a, s)
	}
	return !armed
}

// A step-form access that misses runs its whole chain inside the dispatch
// loop, from the flush before the miss to the step whose probe hits, and
// on a warmed machine it allocates nothing either. The lines and the
// rotation are TestMissChainAllocs's.
func TestStepAccessMissAllocs(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	m := machine.New(cfg)
	stride := mem.Addr(cfg.CacheSets * mem.LineWords)
	base := m.Store.AllocOn(1, uint64(3*stride))
	lines := []mem.Addr{base, base + stride, base + 2*stride}
	stop := false
	var s stepMiss
	p := m.Spawn(0, 0, "acc", func(p *machine.Proc) {
		s.p = p
		for !stop {
			p.Elapse(10)
			s.a, s.started = lines[s.i%len(lines)], false
			p.Ctx.RunStep(&s)
			s.i++
			p.Ctx.Block()
		}
	})
	access := func() {
		p.Ctx.Unblock()
		m.Eng.Run()
	}
	m.Eng.Run()
	for k := 0; k < 30; k++ {
		access()
	}
	misses := m.St.Global.Get(stats.CacheMisses)
	const runs = 90
	if allocs := testing.AllocsPerRun(runs, access); allocs != 0 {
		t.Errorf("%.2f allocations per step-form access that misses, want 0", allocs)
	}
	if got := m.St.Global.Get(stats.CacheMisses) - misses; got != runs+1 {
		t.Errorf("%d misses over %d accesses: not every access missed", got, runs+1)
	}
	stop = true
	access()
	if m.Eng.Live() != 0 {
		t.Fatal("the accessing processor did not finish")
	}
}
