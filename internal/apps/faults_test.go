package apps

import (
	"math"
	"testing"
	"testing/quick"

	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/mesh"
)

// Timing-fault injection: deterministic per-packet jitter (a NetFault with
// no drop, dup or reorder rate, so no reliability sublayer) perturbs every
// network delivery while preserving the per-pair FIFO order the protocol
// needs. Properly synchronized programs must produce bit-identical results
// under any such perturbation — only their timing may move. These tests
// drive the whole stack (coherence protocol, CMMU, runtime, apps) through
// schedules far from the ones the calibrated model produces.

func jitterRT(nodes int, mode core.Mode, maxJitter, seed uint64) *core.RT {
	cfg := machine.DefaultConfig(nodes)
	cfg.Net.Fault = &mesh.NetFault{Seed: seed, Jitter: maxJitter}
	return core.NewDefault(machine.New(cfg), mode)
}

func TestGrainCorrectUnderJitter(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		base := GrainParallel(newRT(t, 8, mode), 7, 50)
		for _, seed := range []uint64{1, 7, 1234} {
			r := GrainParallel(jitterRT(8, mode, 200, seed), 7, 50)
			if r.Sum != base.Sum {
				t.Fatalf("%v seed %d: sum %d != %d", mode, seed, r.Sum, base.Sum)
			}
		}
	}
}

func TestJacobiCorrectUnderJitter(t *testing.T) {
	want := JacobiReference(16, 5)
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		for _, seed := range []uint64{3, 99} {
			r := Jacobi(jitterRT(4, mode, 150, seed), 16, 5)
			if math.Abs(r.Checksum-want) > 1e-9 {
				t.Fatalf("%v seed %d: checksum %.9f, want %.9f", mode, seed, r.Checksum, want)
			}
		}
	}
}

func TestJitterChangesTimingOnly(t *testing.T) {
	base := GrainParallel(newRT(t, 4, core.ModeHybrid), 6, 100)
	jit := GrainParallel(jitterRT(4, core.ModeHybrid, 300, 5), 6, 100)
	if jit.Cycles == base.Cycles {
		t.Log("jitter did not change timing (possible but unlikely)")
	}
	if jit.Sum != base.Sum {
		t.Fatalf("jitter changed the answer: %d vs %d", jit.Sum, base.Sum)
	}
	if jit.Cycles < base.Cycles {
		t.Fatalf("added delay made the run faster: %d < %d", jit.Cycles, base.Cycles)
	}
}

// Property: any (jitter, seed) pair leaves every workload's answer intact.
func TestPropertyAnswersJitterInvariant(t *testing.T) {
	wantJacobi := JacobiReference(8, 3)
	f := func(rawJit uint16, seed uint64) bool {
		jit := uint64(rawJit%500) + 1
		g := GrainParallel(jitterRT(4, core.ModeHybrid, jit, seed), 5, 20)
		if g.Sum != 32 {
			return false
		}
		j := Jacobi(jitterRT(4, core.ModeSharedMemory, jit, seed), 8, 3)
		if math.Abs(j.Checksum-wantJacobi) > 1e-9 {
			return false
		}
		pc := ProdConsMP(jitterRT(2, core.ModeHybrid, jit, seed), 16)
		return pc.Sum == 16*17/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: the transpose self-verifies under jitter (panics on error).
func TestPropertyTransposeJitterInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		Transpose(jitterRT(4, core.ModeHybrid, 300, seed), 16)
		Transpose(jitterRT(4, core.ModeSharedMemory, 300, seed), 16)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
