package apps

import (
	"testing"

	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/metrics"
)

// The attribution invariant: with the profiler enabled, every simulated
// cycle of every node lands in exactly one timeline bucket, and the buckets
// sum exactly to the elapsed cycles per node (Untracked absorbing only
// genuinely unobserved time, never a negative remainder). Each app below
// runs small with metrics on; Finalize errors on over-attribution (the
// double-counting failure mode) and CheckInvariant re-verifies the sum.

// profiledRT builds a runtime on a machine with metrics enabled. The
// profiler must be attached before any Proc spawns (the runtime's
// schedulers spawn inside core.NewDefault).
func profiledRT(t *testing.T, nodes int, mode core.Mode) (*core.RT, *metrics.Profiler) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(nodes))
	prof := m.EnableMetrics()
	rt := core.NewDefault(m, mode)
	checkCoherence(t, m)
	return rt, prof
}

// finishAttrib finalizes and checks the invariant after an app ran.
func finishAttrib(t *testing.T, m *machine.Machine, prof *metrics.Profiler) {
	t.Helper()
	if err := prof.Finalize(uint64(m.Eng.Now())); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := prof.CheckInvariant(); err != nil {
		t.Fatalf("CheckInvariant: %v", err)
	}
	if prof.Total(metrics.Compute) == 0 {
		t.Errorf("no compute cycles attributed: %s", prof)
	}
	t.Logf("attribution:\n%s", prof)
}

func TestAttribMemcpyAllKinds(t *testing.T) {
	// Figure 7's workload: every copy implementation must satisfy the
	// sum-to-elapsed invariant, including the message kind whose completion
	// wait parks under an explicit SyncWait region.
	for _, kind := range []CopyKind{CopyNoPrefetch, CopyPrefetch, CopyMessage} {
		rt, prof := profiledRT(t, 4, core.ModeHybrid)
		r := Memcpy(rt, 3, 4096, kind)
		if r.Cycles == 0 {
			t.Fatalf("%v: zero cycles", kind)
		}
		finishAttrib(t, rt.M, prof)
		if kind != CopyNoPrefetch && prof.Total(metrics.MissStall)+prof.Total(metrics.SyncWait) == 0 {
			t.Errorf("%v: expected stall or sync-wait cycles, got none", kind)
		}
	}
}

func TestAttribAccum(t *testing.T) {
	// Figure 8's workload, both flavours.
	m := machine.New(machine.DefaultConfig(4))
	prof := m.EnableMetrics()
	checkCoherence(t, m)
	r := AccumSM(m, 3, 256)
	if r.Sum != AccumExpected(256) {
		t.Fatalf("AccumSM sum = %d", r.Sum)
	}
	finishAttrib(t, m, prof)
	if prof.Total(metrics.MissStall) == 0 {
		t.Errorf("AccumSM: remote accumulate should stall on misses")
	}

	rt, prof2 := profiledRT(t, 4, core.ModeHybrid)
	r2 := AccumMP(rt, 3, 256)
	if r2.Sum != AccumExpected(256) {
		t.Fatalf("AccumMP sum = %d", r2.Sum)
	}
	finishAttrib(t, rt.M, prof2)
	if prof2.Total(metrics.Handler) == 0 {
		t.Errorf("AccumMP: message path should record handler cycles")
	}
}

func TestAttribGrain(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		r := GrainParallel(rt, 6, 50)
		if r.Sum != 64 {
			t.Fatalf("%v: sum = %d, want 64", mode, r.Sum)
		}
		finishAttrib(t, rt.M, prof)
		if prof.Total(metrics.Idle) == 0 {
			t.Errorf("%v: scheduler loop should record idle cycles", mode)
		}
		if prof.Total(metrics.SyncWait) == 0 {
			t.Errorf("%v: future touches should record sync-wait cycles", mode)
		}
	}
}

func TestAttribAQ(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		AQParallel(rt, 0.03)
		finishAttrib(t, rt.M, prof)
	}
}

func TestAttribJacobi(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		Jacobi(rt, 16, 2)
		finishAttrib(t, rt.M, prof)
		if prof.Total(metrics.SyncWait) == 0 {
			t.Errorf("%v: jacobi barriers should record sync-wait cycles", mode)
		}
	}
}

func TestAttribProdCons(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	prof := m.EnableMetrics()
	checkCoherence(t, m)
	ProdConsSM(m, 32)
	finishAttrib(t, m, prof)

	rt, prof2 := profiledRT(t, 2, core.ModeHybrid)
	ProdConsMP(rt, 32)
	finishAttrib(t, rt.M, prof2)
}

func TestAttribTranspose(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		Transpose(rt, 64)
		finishAttrib(t, rt.M, prof)
	}
}

func TestAttribDisabledIsInert(t *testing.T) {
	// Without EnableMetrics the machine must behave identically: same
	// cycle counts as a profiled run (metrics are observation only).
	plain := Memcpy(newRT(t, 4, core.ModeHybrid), 3, 4096, CopyMessage)
	rt, prof := profiledRT(t, 4, core.ModeHybrid)
	profiled := Memcpy(rt, 3, 4096, CopyMessage)
	if plain.Cycles != profiled.Cycles {
		t.Fatalf("profiling changed timing: plain=%d profiled=%d", plain.Cycles, profiled.Cycles)
	}
	finishAttrib(t, rt.M, prof)
}

// The enabled-overhead benchmark pair: same workload with and without the
// profiler attached. The delta is the real cost of cycle attribution
// (documented in EXPERIMENTS.md); the disabled path is a nil check.
func benchJacobi(b *testing.B, profiled bool) {
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultConfig(8))
		if profiled {
			m.EnableMetrics()
		}
		Jacobi(core.NewDefault(m, core.ModeHybrid), 32, 4)
	}
}

func BenchmarkJacobiPlain(b *testing.B)    { benchJacobi(b, false) }
func BenchmarkJacobiProfiled(b *testing.B) { benchJacobi(b, true) }
