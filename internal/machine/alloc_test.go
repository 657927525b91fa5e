package machine_test

import (
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/stats"
)

// An access that flushes run-ahead cycles and then misses takes the fused
// path: the flush's wake begins the miss inside the dispatch loop and parks
// the processor on the fill (Proc.FlushThen). On a warmed 2-node machine
// that path, with the protocol traffic the miss sets off, allocates
// nothing. Three lines homed on node 1 share one 2-way set of node 0's
// cache, so every access misses; the kind of access rotates over loads,
// stores and fetch-and-adds.
func TestFlushThenMissAllocs(t *testing.T) {
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
