package machine_test

import (
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// remoteSumBodies builds k context bodies that each sum a disjoint slice
// of a remote array (no prefetching — the stalls are the point).
func remoteSumBodies(m *machine.Machine, k int, words uint64, sums []uint64) []func(*machine.MPContext) {
	arr := m.Store.AllocOn(1, words)
	for i := uint64(0); i < words; i++ {
		m.Store.Write(arr+mem.Addr(i), 1)
	}
	bodies := make([]func(*machine.MPContext), k)
	per := words / uint64(k)
	for i := 0; i < k; i++ {
		i := i
		bodies[i] = func(c *machine.MPContext) {
			var s uint64
			for w := uint64(i) * per; w < uint64(i+1)*per; w++ {
				s += c.Read(arr + mem.Addr(w))
				c.Elapse(2)
			}
			sums[i] = s
		}
	}
	return bodies
}

// multiSumTime runs the workload with k hardware contexts and returns the
// completion time.
func multiSumTime(t *testing.T, k int, words uint64) sim.Time {
	t.Helper()
	m := machine.New(machine.DefaultConfig(2))
	sums := make([]uint64, k)
	m.SpawnMulti(0, 0, remoteSumBodies(m, k, words, sums))
	m.Run()
	var total uint64
	for _, s := range sums {
		total += s
	}
	if total != words {
		t.Fatalf("k=%d: sum = %d, want %d", k, total, words)
	}
	return m.Eng.Now()
}

func TestMultithreadingHidesLatency(t *testing.T) {
	const words = 256
	t1 := multiSumTime(t, 1, words)
	t2 := multiSumTime(t, 2, words)
	t4 := multiSumTime(t, 4, words)
	t.Logf("remote sum %d words: 1 ctx=%d, 2 ctx=%d, 4 ctx=%d cycles", words, t1, t2, t4)
	if t2 >= t1 {
		t.Fatalf("second context did not help: %d vs %d", t2, t1)
	}
	// Beyond the point where latency is covered, switch overhead bounds
	// the benefit: four contexts may plateau, but must not regress much.
	if float64(t4) > 1.1*float64(t2) {
		t.Fatalf("4 contexts regressed: %d vs %d", t4, t2)
	}
	if float64(t2) > 0.7*float64(t1) {
		t.Fatalf("multithreading hides too little latency: %d vs %d", t2, t1)
	}
}

func TestMPContextCountsHitsLikeProc(t *testing.T) {
	// One hardware context reading 64 remote words (32 lines) counts a miss
	// per line and a hit per second word, as a Proc making the same reads
	// does, and takes the same cycles as one always has.
	const words = 64
	proc := machine.New(machine.DefaultConfig(2))
	arr := proc.Store.AllocOn(1, words)
	proc.Spawn(0, 0, "p", func(p *machine.Proc) {
		for w := uint64(0); w < words; w++ {
			p.Read(arr + mem.Addr(w))
			p.Elapse(2)
		}
	})
	proc.Run()
	multi := machine.New(machine.DefaultConfig(2))
	sums := make([]uint64, 1)
	multi.SpawnMulti(0, 0, remoteSumBodies(multi, 1, words, sums))
	multi.Run()
	for name, m := range map[string]*machine.Machine{"Proc": proc, "MPContext": multi} {
		hits, misses := m.St.Global.Get(stats.CacheHits), m.St.Global.Get(stats.CacheMisses)
		if hits != words/2 || misses != words/2 {
			t.Errorf("%s: hits/misses = %d/%d, want %d/%d", name, hits, misses, words/2, words/2)
		}
	}
	if got := multi.Eng.Now(); got != 1222 {
		t.Errorf("one context finished at cycle %d, want 1222", got)
	}
}

func TestMultiProcOnlyOneRuns(t *testing.T) {
	// Interleave two contexts doing pure compute; total time must be the
	// SUM of their work (they share one pipeline), not the max.
	m := machine.New(machine.DefaultConfig(1))
	const work = 1000
	bodies := []func(*machine.MPContext){
		func(c *machine.MPContext) { c.Elapse(work) },
		func(c *machine.MPContext) { c.Elapse(work) },
	}
	m.SpawnMulti(0, 0, bodies)
	m.Run()
	if m.Eng.Now() < 2*work {
		t.Fatalf("two compute-bound contexts finished in %d cycles (< %d): pipeline shared illegally",
			m.Eng.Now(), 2*work)
	}
}

func TestMultiProcSwitchCounting(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	sums := make([]uint64, 2)
	mp := m.SpawnMulti(0, 0, remoteSumBodies(m, 2, 64, sums))
	m.Run()
	if mp.Switches == 0 {
		t.Fatal("no context switches recorded despite remote misses")
	}
	if mp.Contexts() != 2 {
		t.Fatalf("Contexts() = %d", mp.Contexts())
	}
}

func TestMultiProcSingleContextDegenerate(t *testing.T) {
	// One context: behaves like a plain blocking processor (no switches).
	m := machine.New(machine.DefaultConfig(2))
	sums := make([]uint64, 1)
	mp := m.SpawnMulti(0, 0, remoteSumBodies(m, 1, 32, sums))
	m.Run()
	if mp.Switches != 0 {
		t.Fatalf("single context recorded %d switches", mp.Switches)
	}
	if sums[0] != 32 {
		t.Fatalf("sum = %d", sums[0])
	}
}

func TestMultiProcWrites(t *testing.T) {
	// Two contexts writing to interleaved remote addresses; all values
	// must land.
	m := machine.New(machine.DefaultConfig(2))
	const words = 64
	arr := m.Store.AllocOn(1, words)
	bodies := []func(*machine.MPContext){
		func(c *machine.MPContext) {
			for w := uint64(0); w < words; w += 2 {
				c.Write(arr+mem.Addr(w), w)
			}
		},
		func(c *machine.MPContext) {
			for w := uint64(1); w < words; w += 2 {
				c.Write(arr+mem.Addr(w), w)
			}
		},
	}
	m.SpawnMulti(0, 0, bodies)
	m.Run()
	for w := uint64(0); w < words; w++ {
		if m.Store.Read(arr+mem.Addr(w)) != w {
			t.Fatalf("arr[%d] = %d", w, m.Store.Read(arr+mem.Addr(w)))
		}
	}
}

func TestSpawnMultiEmptyPanics(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SpawnMulti(0, 0, nil)
}

func TestMPContextFloatAndPrefetch(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	arr := m.Store.AllocOn(1, 8)
	bodies := []func(*machine.MPContext){
		func(c *machine.MPContext) {
			c.Prefetch(arr, false)
			c.Elapse(100)
			c.WriteF(arr+2, 1.5)
			if c.ReadF(arr+2) != 1.5 {
				t.Error("MPContext float round trip failed")
			}
		},
	}
	m.SpawnMulti(0, 0, bodies)
	m.Run()
	if m.Store.ReadF(arr+2) != 1.5 {
		t.Fatal("value not stored")
	}
}
