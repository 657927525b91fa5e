package machine_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/sim"
)

func TestElapseAndFlush(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	var done sim.Time
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Elapse(100)
		p.Elapse(50)
		p.Flush()
		done = p.Ctx.Now()
	})
	m.Run()
	if done != 150 {
		t.Fatalf("elapsed %d, want 150", done)
	}
}

func TestSharedMemoryValueTransfer(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	a := m.Store.AllocOn(2, 2)
	var got uint64
	m.Spawn(0, 0, "writer", func(p *machine.Proc) {
		p.Write(a, 31337)
	})
	m.Spawn(1, 0, "reader", func(p *machine.Proc) {
		p.Elapse(1000) // well after the write
		got = p.Read(a)
	})
	m.Run()
	if got != 31337 {
		t.Fatalf("read %d, want 31337", got)
	}
}

func TestFloatViews(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(1, 2)
	var got float64
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.WriteF(a, 3.25)
		got = p.ReadF(a)
	})
	m.Run()
	if got != 3.25 {
		t.Fatalf("float round trip = %v", got)
	}
}

func TestHitsAreRunAhead(t *testing.T) {
	// After the first miss, repeated loads of the same line must cost hit
	// cycles, not miss latency.
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(1, 2)
	var missLat, hitLat sim.Time
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Flush()
		s := p.Now()
		p.Read(a)
		p.Flush()
		missLat = p.Now() - s
		s = p.Now()
		for i := 0; i < 10; i++ {
			p.Read(a)
		}
		p.Flush()
		hitLat = p.Now() - s
	})
	m.Run()
	if hitLat >= missLat {
		t.Fatalf("10 hits (%d) cost as much as one miss (%d)", hitLat, missLat)
	}
	if hitLat != 10*mem.CacheHit {
		t.Fatalf("hit cost %d, want %d", hitLat, 10*mem.CacheHit)
	}
}

func TestFetchAddAtomicAcrossNodes(t *testing.T) {
	const n, k = 8, 50
	m := machine.New(machine.DefaultConfig(n))
	a := m.Store.AllocOn(0, 2)
	for i := 0; i < n; i++ {
		i := i
		m.Spawn(i, sim.Time(i), "adder", func(p *machine.Proc) {
			for j := 0; j < k; j++ {
				p.FetchAdd(a, 1)
				p.Elapse(uint64(1 + (i+j)%7))
			}
		})
	}
	m.Run()
	if got := m.Store.Read(a); got != n*k {
		t.Fatalf("counter = %d, want %d", got, n*k)
	}
}

func TestTestSetMutualExclusion(t *testing.T) {
	// Two procs contend on a test&set lock guarding a non-atomic
	// read-modify-write; the invariant catches lost updates.
	const k = 30
	m := machine.New(machine.DefaultConfig(2))
	lock := m.Store.AllocOn(0, 2)
	counter := m.Store.AllocOn(0, 2)
	body := func(p *machine.Proc) {
		for j := 0; j < k; j++ {
			for p.TestSet(lock) != 0 {
				p.Elapse(5)
			}
			v := p.Read(counter)
			p.Elapse(3)
			p.Write(counter, v+1)
			p.Write(lock, 0)
		}
	}
	m.Spawn(0, 0, "a", body)
	m.Spawn(1, 0, "b", body)
	m.Run()
	if got := m.Store.Read(counter); got != 2*k {
		t.Fatalf("counter = %d, want %d (lost updates)", got, 2*k)
	}
}

func TestCompareSwap(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(0, 2)
	var first, second bool
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Write(a, 5)
		first = p.CompareSwap(a, 5, 6)
		second = p.CompareSwap(a, 5, 7)
	})
	m.Run()
	if !first || second {
		t.Fatalf("CAS results %v/%v, want true/false", first, second)
	}
	if got := m.Store.Read(a); got != 6 {
		t.Fatalf("value = %d, want 6", got)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	// Sum a remote array with and without prefetching; prefetch must be
	// meaningfully faster (this is the accum mechanism from the paper).
	sum := func(prefetch bool) sim.Time {
		m := machine.New(machine.DefaultConfig(4))
		const words = 256
		arr := m.Store.AllocOn(3, words)
		var took sim.Time
		m.Spawn(0, 0, "accum", func(p *machine.Proc) {
			p.Flush()
			start := p.Now()
			var s uint64
			for i := 0; i < words; i++ {
				if prefetch && i%int(mem.LineWords) == 0 {
					ahead := i + 4*int(mem.LineWords)
					if ahead < words {
						p.Prefetch(arr+mem.Addr(ahead), false)
					}
				}
				s += p.Read(arr + mem.Addr(i))
				p.Elapse(1)
			}
			p.Flush()
			took = p.Now() - start
		})
		m.Run()
		return took
	}
	plain := sum(false)
	pf := sum(true)
	t.Logf("accum 256 words: plain=%d prefetch=%d cycles", plain, pf)
	if pf >= plain {
		t.Fatalf("prefetch (%d) not faster than plain (%d)", pf, plain)
	}
	if float64(pf) > 0.7*float64(plain) {
		t.Fatalf("prefetch hides too little: %d vs %d", pf, plain)
	}
}

func TestMicros(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	if got := m.Micros(33); got != 1.0 {
		t.Fatalf("33 cycles at 33 MHz = %v µs, want 1", got)
	}
}

// deadlockReport runs m and returns the deadlock panic's message, or ""
// when Run returned normally.
func deadlockReport(m *machine.Machine) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	m.Run()
	return ""
}

// A deadlock names each stuck context as "n<node>:<name>" with its state.
// Names are built when printed, so this pins the printed text.
func TestDeadlockDetected(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	m.Spawn(0, 0, "stuck", func(p *machine.Proc) {
		p.Ctx.Block() // nobody will wake it
	})
	msg := deadlockReport(m)
	if msg == "" {
		t.Fatal("expected deadlock panic")
	}
	if !strings.Contains(msg, "[ctx(n0:stuck,blocked)]") {
		t.Fatalf("deadlock report %q does not name ctx(n0:stuck,blocked)", msg)
	}
}

// A Proc reused by Respawn with a thread id prints as n<node>:thr<id>, on
// its new node, and is listed once.
func TestRespawnedProcPrintsThreadName(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	first := m.Spawn(0, 0, "t", func(p *machine.Proc) { p.Elapse(5) })
	m.Spawn(1, 0, "respawner", func(p *machine.Proc) {
		p.Elapse(20)
		p.Flush()
		if again := m.Respawn(first, 2, p.Now(), "thr", 1234, func(p *machine.Proc) { p.Ctx.Block() }); again != first {
			t.Error("Respawn built a new Proc instead of reusing the finished one")
		}
	})
	msg := deadlockReport(m)
	if !strings.Contains(msg, "[ctx(n2:thr1234,blocked)]") {
		t.Fatalf("deadlock report %q does not name ctx(n2:thr1234,blocked)", msg)
	}
	if stuck := m.Eng.Stuck(); len(stuck) != 1 || stuck[0] != "ctx(n2:thr1234,blocked)" {
		t.Fatalf("Stuck() = %v, want [ctx(n2:thr1234,blocked)]", stuck)
	}
	if first.ID() != 2 {
		t.Fatalf("reused Proc on node %d, want 2", first.ID())
	}
}

// A finished Proc kept for reuse pins neither its body closure nor what
// the body captured, after one life or two.
func TestFinishedProcReleasesBody(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	var freed atomic.Int32
	body := func() func(*machine.Proc) {
		payload := new([64]uint64)
		runtime.SetFinalizer(payload, func(*[64]uint64) { freed.Add(1) })
		return func(p *machine.Proc) {
			p.Elapse(1)
			p.Flush()
			payload[0]++
		}
	}
	p := m.Spawn(0, 0, "holder", body())
	var midRun bool
	m.Spawn(1, 0, "watcher", func(w *machine.Proc) {
		w.Elapse(10) // the holder's first life finished at cycle 1
		w.Flush()
		m.Respawn(p, 0, w.Now(), "holder", 0, body())
		w.Elapse(10)
		w.Flush()
		for i := 0; i < 100 && freed.Load() < 2; i++ {
			runtime.GC()
			runtime.Gosched()
		}
		midRun = freed.Load() == 2
	})
	m.Run()
	if !midRun {
		t.Fatalf("finished Proc pinned its bodies' captures: %d of 2 freed", freed.Load())
	}
	runtime.KeepAlive(p)
}

func TestStolenCyclesDrainAtFlush(t *testing.T) {
	// Book handler cycles on the node's controller directly and check the
	// next flush pays them.
	m := machine.New(machine.DefaultConfig(1))
	var done sim.Time
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Elapse(10)
		p.Flush()
		m.Nodes[0].Ctrl.StealHandler(40)
		p.Elapse(5)
		p.Flush()
		done = p.Ctx.Now()
	})
	m.Run()
	if done != 55 {
		t.Fatalf("finished at %d, want 55 (10+40+5)", done)
	}
}

// noFaults is a FaultChooser that delivers every packet.
type noFaults struct{}

func (noFaults) ChooseFault(int, int, uint64) (int, uint64) { return mesh.FaultNone, 0 }

// The reliability sublayer is interposed exactly when the wires can break
// exactly-once FIFO delivery (a drop, dup or reorder rate, or a Chooser
// that may pick one) or when cfg.Reliable asks for it; fault-free and
// jitter-only machines drive the raw protocol.
func TestReliableInterposition(t *testing.T) {
	cases := []struct {
		name     string
		fault    *mesh.NetFault
		reliable bool
		want     bool
	}{
		{"fault-free", nil, false, false},
		{"jitter-only", &mesh.NetFault{Seed: 1, Jitter: 100}, false, false},
		{"drop", &mesh.NetFault{Seed: 1, Drop: 0.01}, false, true},
		{"dup", &mesh.NetFault{Seed: 1, Dup: 0.01}, false, true},
		{"reorder", &mesh.NetFault{Seed: 1, Reorder: 0.01}, false, true},
		{"chooser", &mesh.NetFault{Chooser: noFaults{}}, false, true},
		{"reliable-only", nil, true, true},
	}
	for _, topo := range []machine.Topology{machine.TopoMesh, machine.TopoIdeal} {
		for _, tc := range cases {
			cfg := machine.DefaultConfig(4)
			cfg.Topology = topo
			cfg.Net.Fault = tc.fault
			if tc.reliable {
				cfg.Reliable = true
			}
			m := machine.New(cfg)
			if got := m.Rel != nil; got != tc.want {
				t.Errorf("topology %d, %s: reliability sublayer interposed = %v, want %v", topo, tc.name, got, tc.want)
			}
			if m.Rel != nil && m.Net != mesh.Network(m.Rel) {
				t.Errorf("topology %d, %s: interposed sublayer is not the machine's network", topo, tc.name)
			}
		}
	}
}

var newSink *machine.Machine

// BenchmarkNew64 measures building the paper's 64-node machine, the set-up
// every paper run pays before its first simulated cycle.
func BenchmarkNew64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSink = machine.New(machine.DefaultConfig(64))
	}
}

// Simulated memory, directories and cache tag arrays are allocated as a
// run touches them, so building a 64-node machine pays for none of its 64
// address ranges, directories or 2048-set caches.
func TestNew64AllocatesUnder1MiB(t *testing.T) {
	if got := testing.Benchmark(BenchmarkNew64).AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("machine.New(DefaultConfig(64)) allocates %d bytes, want under %d", got, 1<<20)
	}
}
