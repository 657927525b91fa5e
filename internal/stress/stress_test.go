package stress

import (
	"reflect"
	"strings"
	"testing"

	"alewife/internal/cmmu"
	"alewife/internal/mem"
)

func small(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Ops = 400
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(42))
	b := Generate(DefaultConfig(42))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different programs")
	}
	c := Generate(DefaultConfig(43))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestGenerateNodesDecorrelated(t *testing.T) {
	prog := Generate(DefaultConfig(7))
	for n := 1; n < len(prog); n++ {
		if reflect.DeepEqual(prog[0], prog[n]) {
			t.Fatalf("node 0 and node %d run identical streams", n)
		}
	}
}

func TestCleanRunsHaveNoViolations(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		res := mustRun(t, small(seed))
		if res.Failed() {
			t.Fatalf("seed %d: unexpected violations: %v", seed, res.Violations)
		}
		if res.TotalOps == 0 || res.Cycles == 0 {
			t.Fatalf("seed %d: nothing ran (ops=%d cycles=%d)", seed, res.TotalOps, res.Cycles)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := mustRun(t, small(11))
	b := mustRun(t, small(11))
	if a.Cycles != b.Cycles || a.TotalOps != b.TotalOps {
		t.Fatalf("identical seeds diverged: (%d cycles, %d ops) vs (%d cycles, %d ops)",
			a.Cycles, a.TotalOps, b.Cycles, b.TotalOps)
	}
}

// Mutation-style broken-protocol tests: each fault deliberately breaks one
// protocol rule; the corresponding checker must catch it. This is the
// regression suite for the checkers themselves.
func TestMutationsCaught(t *testing.T) {
	cases := []struct {
		name  string
		mem   *mem.Fault
		cmmu  *cmmu.Fault
		wants string // substring of some violation
	}{
		{"drop-invalidation", &mem.Fault{DropInval: true}, nil, "does not account for it"},
		{"forget-sharer", &mem.Fault{ForgetSharer: true}, nil, "no sharers"},
		{"wrong-owner", &mem.Fault{WrongOwner: true}, nil, "home records owner"},
		{"skip-invalidation", &mem.Fault{SkipInval: true}, nil, "does not account for it"},
		{"writeback-to-shared", &mem.Fault{WBToShared: true}, nil, "no sharers"},
		{"drop-writeback", &mem.Fault{DropWriteback: true}, nil, ""},
		{"deliver-while-masked", nil, &cmmu.Fault{DrainMasked: true}, "interrupts masked"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := small(1)
			cfg.MemFault = tc.mem
			cfg.CMMUFault = tc.cmmu
			res := mustRun(t, cfg)
			if !res.Failed() {
				t.Fatal("broken protocol not caught")
			}
			if tc.wants != "" {
				found := false
				for _, v := range res.Violations {
					if strings.Contains(v, tc.wants) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no violation mentions %q; got %v", tc.wants, res.Violations)
				}
			}
			t.Logf("caught at cycle %d: %s", res.FirstAt, res.Violations[0])
		})
	}
}

// The replay guarantee: re-executing a failing seed reproduces the identical
// first violation at the identical cycle, and the report carries the
// one-line repro plus the trace window.
func TestFailureReplaysExactly(t *testing.T) {
	cfg := small(1)
	cfg.MemFault = &mem.Fault{DropInval: true}
	a := mustExecute(t, cfg, Generate(cfg))
	b := mustExecute(t, cfg, Generate(cfg))
	if !a.Failed() || !b.Failed() {
		t.Fatal("fault not caught")
	}
	if a.FirstAt != b.FirstAt {
		t.Fatalf("first violation cycle differs: %d vs %d", a.FirstAt, b.FirstAt)
	}
	if a.Violations[0] != b.Violations[0] {
		t.Fatalf("first violation differs:\n %s\n %s", a.Violations[0], b.Violations[0])
	}
	rep := a.Report()
	for _, want := range []string{"reproduce: alewife-stress -seed 0x1", "violation:", "trace events"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestShrinkConverges(t *testing.T) {
	cfg := small(1)
	cfg.MemFault = &mem.Fault{DropInval: true}
	full := Generate(cfg)
	prog, res := mustShrink(t, cfg, full, 120)
	if !res.Failed() {
		t.Fatal("shrunk program no longer fails")
	}
	before, after := CountOps(full), CountOps(prog)
	if after >= before {
		t.Fatalf("shrink did not reduce the program: %d -> %d ops", before, after)
	}
	t.Logf("shrunk %d -> %d ops; still fails with: %s", before, after, res.Violations[0])
	// Shrinking is deterministic too.
	prog2, _ := mustShrink(t, cfg, full, 120)
	if !reflect.DeepEqual(prog, prog2) {
		t.Fatal("shrink is nondeterministic")
	}
}

// The shrinker's last pass deletes single ops, including a node's only
// one. A forget-sharer failure needs fewer ops than there are nodes, so a
// shrink that stops at one op per node has skipped that pass.
func TestShrinkDeletesSingleOps(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MemFault = &mem.Fault{ForgetSharer: true}
	prog, res := mustShrink(t, cfg, Generate(cfg), 0)
	if !res.Failed() {
		t.Fatal("shrunk program no longer fails")
	}
	if n := CountOps(prog); n >= cfg.Nodes {
		t.Fatalf("shrunk to %d ops, want fewer than the %d nodes", n, cfg.Nodes)
	}
}

// History-checker unit tests over hand-built (and hand-broken) histories:
// the live run can't produce these shapes, so they are synthesized.
func TestCheckHistory(t *testing.T) {
	w := func(n int, loc, val uint64) HistOp {
		return HistOp{Node: n, Loc: mem.Addr(loc), Write: true, Val: val}
	}
	r := func(n int, loc, val uint64) HistOp {
		return HistOp{Node: n, Loc: mem.Addr(loc), Val: val}
	}
	cases := []struct {
		name  string
		hist  []HistOp
		wants string // "" = must be clean
	}{
		{"empty", nil, ""},
		{"read-initial", []HistOp{r(0, 8, 0)}, ""},
		{"simple", []HistOp{w(0, 8, 1), r(1, 8, 1), w(1, 8, 2), r(0, 8, 2)}, ""},
		{"stale-then-fresh", []HistOp{w(0, 8, 1), w(0, 8, 2), r(1, 8, 1), r(1, 8, 2)}, ""},
		{"two-locations", []HistOp{w(0, 8, 1), w(1, 16, 2), r(2, 8, 1), r(2, 16, 2)}, ""},
		{"duplicate-write", []HistOp{w(0, 8, 5), w(1, 8, 5)}, "duplicate write value"},
		{"alien-value", []HistOp{w(0, 8, 1), r(1, 8, 99)}, "never written"},
		{"backward-read", []HistOp{w(0, 8, 1), w(0, 8, 2), r(1, 8, 2), r(1, 8, 1)}, "went backward"},
		{"forgot-own-write", []HistOp{w(0, 8, 1), w(1, 8, 2), r(1, 8, 1)}, "went backward"},
		{"initial-after-write-seen", []HistOp{w(0, 8, 1), r(1, 8, 1), r(1, 8, 0)}, "went backward"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := CheckHistory(tc.hist)
			if tc.wants == "" {
				if len(bad) != 0 {
					t.Fatalf("clean history flagged: %v", bad)
				}
				return
			}
			if len(bad) == 0 {
				t.Fatal("broken history passed")
			}
			if !strings.Contains(bad[0], tc.wants) {
				t.Fatalf("violation %q does not mention %q", bad[0], tc.wants)
			}
		})
	}
}

func TestLivelockBudget(t *testing.T) {
	cfg := small(2)
	cfg.MaxEvents = 50 // absurdly tight: must trip the budget, not hang
	res := mustRun(t, cfg)
	if !res.Failed() {
		t.Fatal("budget exhaustion not reported")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "event budget") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an event-budget violation, got %v", res.Violations)
	}
}
