package mesh

import (
	"testing"

	"alewife/internal/sim"
	"alewife/internal/stats"
)

func faultyMesh(w, h int, ft *NetFault) (*sim.Engine, *Mesh, *stats.Machine) {
	eng := sim.NewEngine()
	p := DefaultParams()
	p.Fault = ft
	st := stats.NewMachine(w * h)
	return eng, New(eng, w, h, p, st), st
}

// countDeliveries sends n same-size packets 0->1 and returns how many copies
// arrive.
func countDeliveries(eng *sim.Engine, m *Mesh, n int) int {
	got := 0
	for i := 0; i < n; i++ {
		send(m, 0, 1, 16, sim.Time(i)*100, func() { got++ })
	}
	eng.Run()
	return got
}

func TestNetFaultNilInjectsNothing(t *testing.T) {
	eng, m, st := faultyMesh(2, 1, nil)
	if got := countDeliveries(eng, m, 50); got != 50 {
		t.Fatalf("fault-free mesh delivered %d/50", got)
	}
	for _, c := range []stats.ID{stats.NetFaultDrops, stats.NetFaultDups, stats.NetFaultReorders} {
		if st.Global.Get(c) != 0 {
			t.Fatalf("%s = %d on fault-free mesh", c, st.Global.Get(c))
		}
	}
}

func TestNetFaultDropLosesPackets(t *testing.T) {
	eng, m, st := faultyMesh(2, 1, &NetFault{Seed: 7, Drop: 0.3})
	got := countDeliveries(eng, m, 200)
	drops := int(st.Global.Get(stats.NetFaultDrops))
	if drops == 0 {
		t.Fatal("30% drop rate over 200 packets dropped nothing")
	}
	if got+drops != 200 {
		t.Fatalf("delivered %d + dropped %d != 200", got, drops)
	}
}

func TestNetFaultDupDeliversTwice(t *testing.T) {
	eng, m, st := faultyMesh(2, 1, &NetFault{Seed: 7, Dup: 0.3})
	got := countDeliveries(eng, m, 200)
	dups := int(st.Global.Get(stats.NetFaultDups))
	if dups == 0 {
		t.Fatal("30% dup rate over 200 packets duplicated nothing")
	}
	if got != 200+dups {
		t.Fatalf("delivered %d with %d dups, want %d", got, dups, 200+dups)
	}
}

func TestNetFaultReorderOvertakesFIFO(t *testing.T) {
	// With reordering on, some later-sent packet must arrive before an
	// earlier-sent one on the same pair — exactly what the fault-free
	// mesh's per-pair FIFO clamp forbids.
	eng, m, st := faultyMesh(2, 1, &NetFault{Seed: 3, Reorder: 0.4})
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		send(m, 0, 1, 16, sim.Time(i)*50, func() { order = append(order, i) })
	}
	eng.Run()
	if st.Global.Get(stats.NetFaultReorders) == 0 {
		t.Fatal("40% reorder rate over 100 packets reordered nothing")
	}
	inverted := false
	for k := 1; k < len(order); k++ {
		if order[k] < order[k-1] {
			inverted = true
			break
		}
	}
	if !inverted {
		t.Fatal("reordering enabled but deliveries stayed FIFO")
	}
}

func TestNetFaultDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []int {
		eng, m, _ := faultyMesh(2, 1, &NetFault{Seed: seed, Drop: 0.1, Dup: 0.1, Reorder: 0.1})
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			send(m, 0, 1, 16, sim.Time(i)*50, func() { order = append(order, i) })
		}
		eng.Run()
		return order
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different order at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestNetFaultVerdictRatesRoughlyMatch(t *testing.T) {
	ft := &NetFault{Seed: 1, Drop: 0.05, Dup: 0.05, Reorder: 0.05}
	counts := map[int]int{}
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		counts[ft.resolve(0, 1, i).kind]++
	}
	for _, k := range []int{FaultDrop, FaultDup, FaultReorder} {
		rate := float64(counts[k]) / n
		if rate < 0.04 || rate > 0.06 {
			t.Fatalf("verdict class %d rate %.4f, want ~0.05", k, rate)
		}
	}
}

// Jitter is drawn from the same per-packet hash as the loss verdicts
// without disturbing them: adding it to a lossy fault leaves every
// packet's verdict and delay unchanged, and the jitter values fill
// [0, Jitter).
func TestNetFaultJitterSharesVerdictStream(t *testing.T) {
	lossy := &NetFault{Seed: 5, Drop: 0.1, Dup: 0.1, Reorder: 0.1}
	jittered := *lossy
	jittered.Jitter = 16
	seen := map[uint64]bool{}
	for n := uint64(1); n <= 4000; n++ {
		a, b := lossy.resolve(0, 1, n), jittered.resolve(0, 1, n)
		if a.jitter != 0 {
			t.Fatalf("packet %d: jitter %d without NetFault.Jitter", n, a.jitter)
		}
		if a.kind != b.kind || a.delay != b.delay {
			t.Fatalf("packet %d: jitter changed the verdict: %+v vs %+v", n, a, b)
		}
		if b.jitter >= jittered.Jitter {
			t.Fatalf("packet %d: jitter %d outside [0, %d)", n, b.jitter, jittered.Jitter)
		}
		seen[b.jitter] = true
	}
	if len(seen) != int(jittered.Jitter) {
		t.Fatalf("jitter took %d of %d values over 4000 packets", len(seen), jittered.Jitter)
	}
}
