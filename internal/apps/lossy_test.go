package apps

import (
	"testing"

	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/mesh"
	"alewife/internal/metrics"
	"alewife/internal/stats"
)

// Every app must compute the same answers over 1%-lossy wires as over
// perfect ones — the reliability sublayer makes the loss invisible to the
// program — and the cycle-attribution invariant must keep holding while the
// sublayer's retransmissions, dup-drops and timer stalls are being metered.

// lossyConfig is the standard machine with every wire fault at 1%.
func lossyConfig(nodes int) machine.Config {
	cfg := machine.DefaultConfig(nodes)
	cfg.Net.Fault = &mesh.NetFault{Seed: 0x10551, Drop: 0.01, Dup: 0.01, Reorder: 0.01}
	return cfg
}

// lossyMachine builds a profiled lossy machine with coherence and
// reliability quiescence armed at teardown.
func lossyMachine(t *testing.T, nodes int) (*machine.Machine, *metrics.Profiler) {
	t.Helper()
	m := machine.New(lossyConfig(nodes))
	if m.Rel == nil {
		t.Fatal("lossy machine built without the reliability sublayer")
	}
	prof := m.EnableMetrics()
	checkCoherence(t, m)
	t.Cleanup(func() {
		if err := m.Rel.Quiesce(); err != nil {
			t.Errorf("reliability quiescence at teardown: %v", err)
		}
		if vs := m.Rel.Violations(); len(vs) != 0 {
			t.Errorf("reliability violations: %v", vs)
		}
	})
	return m, prof
}

// lossyRT layers the runtime on a profiled lossy machine.
func lossyRT(t *testing.T, nodes int, mode core.Mode) (*core.RT, *metrics.Profiler) {
	t.Helper()
	m, prof := lossyMachine(t, nodes)
	return core.NewDefault(m, mode), prof
}

// finishLossy runs the attribution invariant and then insists the wires
// actually misbehaved — a lossy run that saw no faults proved nothing.
// Message-passing variants move their payloads in a handful of bulk DMA
// packets, too few for a 1% rate to hit deterministically, so the
// faults-fired demand applies only to runs with real packet volume.
func finishLossy(t *testing.T, m *machine.Machine, prof *metrics.Profiler) {
	t.Helper()
	finishAttrib(t, m, prof)
	faults := m.St.Global.Get(stats.NetFaultDrops) +
		m.St.Global.Get(stats.NetFaultDups) + m.St.Global.Get(stats.NetFaultReorders)
	if faults == 0 && m.St.Global.Get(stats.NetPackets) >= 300 {
		t.Error("no wire faults injected despite substantial traffic")
	}
	if m.St.Global.Get(stats.RelAcks) == 0 {
		t.Error("reliability sublayer never acknowledged anything")
	}
}

func TestLossyMemcpyAllKinds(t *testing.T) {
	for _, kind := range []CopyKind{CopyNoPrefetch, CopyPrefetch, CopyMessage} {
		rt, prof := lossyRT(t, 4, core.ModeHybrid)
		r := Memcpy(rt, 3, 4096, kind)
		if r.Cycles == 0 {
			t.Fatalf("%v: zero cycles", kind)
		}
		finishLossy(t, rt.M, prof)
	}
}

func TestLossyAccum(t *testing.T) {
	m, prof := lossyMachine(t, 4)
	if r := AccumSM(m, 3, 256); r.Sum != AccumExpected(256) {
		t.Fatalf("AccumSM over loss: sum = %d, want %d", r.Sum, AccumExpected(256))
	}
	finishLossy(t, m, prof)

	rt, prof2 := lossyRT(t, 4, core.ModeHybrid)
	if r := AccumMP(rt, 3, 256); r.Sum != AccumExpected(256) {
		t.Fatalf("AccumMP over loss: sum = %d, want %d", r.Sum, AccumExpected(256))
	}
	finishLossy(t, rt.M, prof2)
}

func TestLossyGrain(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := lossyRT(t, 4, mode)
		if r := GrainParallel(rt, 6, 50); r.Sum != 64 {
			t.Fatalf("%v over loss: sum = %d, want 64", mode, r.Sum)
		}
		finishLossy(t, rt.M, prof)
	}
}

func TestLossyAQ(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := lossyRT(t, 4, mode)
		AQParallel(rt, 0.03)
		finishLossy(t, rt.M, prof)
	}
}

func TestLossyJacobi(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := lossyRT(t, 4, mode)
		Jacobi(rt, 16, 2)
		finishLossy(t, rt.M, prof)
	}
}

func TestLossyProdCons(t *testing.T) {
	m, prof := lossyMachine(t, 2)
	ProdConsSM(m, 32)
	finishLossy(t, m, prof)

	rt, prof2 := lossyRT(t, 2, core.ModeHybrid)
	ProdConsMP(rt, 32)
	finishLossy(t, rt.M, prof2)
}

func TestLossyTranspose(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := lossyRT(t, 4, mode)
		Transpose(rt, 64)
		finishLossy(t, rt.M, prof)
	}
}

// TestLossyDeterministic: a lossy app run is as replayable as a clean one —
// same config, same cycle count, same fault and recovery tallies.
func TestLossyDeterministic(t *testing.T) {
	run := func() (uint64, int64, int64) {
		m := machine.New(lossyConfig(4))
		r := AccumSM(m, 3, 256)
		return r.Cycles, m.St.Global.Get(stats.NetFaultDrops), m.St.Global.Get(stats.RelRetransmits)
	}
	c1, d1, r1 := run()
	c2, d2, r2 := run()
	if c1 != c2 || d1 != d2 || r1 != r2 {
		t.Fatalf("identical lossy runs diverged: cycles %d/%d drops %d/%d retransmits %d/%d",
			c1, c2, d1, d2, r1, r2)
	}
}
