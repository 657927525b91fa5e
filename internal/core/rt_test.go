package core

import (
	"testing"

	"alewife/internal/machine"
)

func TestModeString(t *testing.T) {
	if ModeSharedMemory.String() != "shared-memory" || ModeHybrid.String() != "hybrid" {
		t.Fatal("mode names wrong")
	}
}

func TestDoneFlag(t *testing.T) {
	rt := newRT(2, ModeHybrid)
	if rt.Done() {
		t.Fatal("fresh runtime already done")
	}
	rt.Run(func(tc *TC) uint64 { return 0 })
	if !rt.Done() {
		t.Fatal("runtime not done after Run")
	}
}

func TestCoresAccessor(t *testing.T) {
	if newRT(7, ModeSharedMemory).Cores() != 7 {
		t.Fatal("Cores() wrong")
	}
}

func TestUnknownTaskPanics(t *testing.T) {
	rt := newRT(1, ModeHybrid)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.task(99999)
}

func TestUnknownThreadPanics(t *testing.T) {
	rt := newRT(1, ModeHybrid)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.thread(99999)
}

func TestVictimNeverSelf(t *testing.T) {
	for _, pol := range []StealPolicy{StealRandom, StealScan} {
		rt := New(machine.New(machine.DefaultConfig(8)), ModeHybrid, pol)
		c := rt.cores[3]
		for round := 0; round < 200; round++ {
			if v := c.victim(round); v == 3 || v < 0 || v > 7 {
				t.Fatalf("pol %v: victim(%d) = %d", pol, round, v)
			}
		}
	}
}

func TestVictimSingleNode(t *testing.T) {
	rt := newRT(1, ModeHybrid)
	if v := rt.cores[0].victim(0); v != 0 {
		t.Fatalf("1-node victim = %d", v)
	}
}

func TestScanPolicyCoversAllVictims(t *testing.T) {
	rt := New(machine.New(machine.DefaultConfig(5)), ModeHybrid, StealScan)
	seen := map[int]bool{}
	for round := 0; round < 8; round++ {
		seen[rt.cores[2].victim(round)] = true
	}
	if len(seen) != 4 || seen[2] {
		t.Fatalf("scan covered %v, want the 4 non-self victims", seen)
	}
}

func TestRandomPolicyEventuallyCoversAll(t *testing.T) {
	rt := New(machine.New(machine.DefaultConfig(6)), ModeHybrid, StealRandom)
	seen := map[int]bool{}
	for round := 0; round < 500; round++ {
		seen[rt.cores[0].victim(round)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("random covered %d victims, want 5", len(seen))
	}
}

func TestBarrierTreeMath(t *testing.T) {
	rt := newRT(13, ModeHybrid)
	b := rt.Barrier()
	// Heap layout, arity 3: children of 0 are 1..3; of 1 are 4..6.
	if got := b.nchildren(0, 3); got != 3 {
		t.Fatalf("nchildren(0) = %d", got)
	}
	if got := b.children(1, 3); len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("children(1) = %v", got)
	}
	// Node 4 with arity 3 has children 13.. -> none in a 13-node machine.
	if got := b.nchildren(4, 3); got != 0 {
		t.Fatalf("nchildren(4) = %d", got)
	}
	for i := 1; i < 13; i++ {
		p := parent(i, 3)
		found := false
		for _, c := range b.children(p, 3) {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d not among its parent's children", i)
		}
	}
}

func TestSeparateRuntimesIndependent(t *testing.T) {
	// Two runtimes on two machines don't interfere (no shared globals).
	a := newRT(2, ModeHybrid)
	b := newRT(2, ModeSharedMemory)
	va, _ := a.Run(func(tc *TC) uint64 { return 1 })
	vb, _ := b.Run(func(tc *TC) uint64 { return 2 })
	if va != 1 || vb != 2 {
		t.Fatalf("cross-talk: %d %d", va, vb)
	}
}

func TestDeterminismAcrossConfigs(t *testing.T) {
	// Determinism must hold for each (mode, nodes) combination separately.
	for _, mode := range []Mode{ModeSharedMemory, ModeHybrid} {
		for _, nodes := range []int{1, 3, 8} {
			run := func() uint64 {
				rt := newRT(nodes, mode)
				_, cyc := rt.Run(func(tc *TC) uint64 { return treeSum(tc, 5) })
				return cyc
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("mode %v nodes %d nondeterministic: %d vs %d", mode, nodes, a, b)
			}
		}
	}
}
