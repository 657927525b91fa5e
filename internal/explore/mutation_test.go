package explore

import (
	"testing"

	"alewife/internal/stress"
)

// mutationBudget is one row of the regression table: the machine shape and
// schedule budget under which the explorer must mechanically find the
// mutation. The shapes differ because the mutations live in different
// layers: the directory bugs fall to read/write contention under the
// default mix, drain-masked needs mask and send ops in the program, the
// reliability bugs need message traffic — and two of them (accept-stale,
// no-retransmit) are unreachable on perfect wires, so their rows branch
// packet fates (FaultPackets) and prove the drop/dup choice points earn
// their place. Budgets (MaxRuns) are deliberately tight; observed
// runs-to-detection are recorded in EXPERIMENTS.md.
type mutationBudget struct {
	name    string
	nodes   int
	ops     int
	lines   int
	mix     []int
	faultPk int
	maxRuns int
}

// sendMix weights the generator toward active messages and mailbox reads,
// the traffic the interrupt and reliability layers see.
var sendMix = []int{2, 2, 0, 0, 10, 4, 4, 2, 2}

var mutationBudgets = []mutationBudget{
	{name: "drop-inval", nodes: 3, ops: 12, lines: 3, maxRuns: 50},
	{name: "forget-sharer", nodes: 3, ops: 12, lines: 3, maxRuns: 50},
	{name: "wrong-owner", nodes: 3, ops: 12, lines: 3, maxRuns: 50},
	{name: "skip-inval", nodes: 3, ops: 12, lines: 3, maxRuns: 50},
	{name: "wb-to-shared", nodes: 3, ops: 12, lines: 3, maxRuns: 50},
	{name: "drop-writeback", nodes: 3, ops: 12, lines: 3, maxRuns: 50},
	{name: "drain-masked", nodes: 3, ops: 10, lines: 2, mix: sendMix, maxRuns: 50},
	{name: "drop-ack", nodes: 3, ops: 10, lines: 2, mix: sendMix, maxRuns: 50},
	{name: "dedup-off-by-one", nodes: 3, ops: 10, lines: 2, mix: sendMix, maxRuns: 50},
	{name: "accept-stale", nodes: 3, ops: 10, lines: 2, mix: sendMix, faultPk: 6, maxRuns: 200},
	{name: "no-retransmit", nodes: 3, ops: 10, lines: 2, mix: sendMix, faultPk: 6, maxRuns: 200},
}

func (b mutationBudget) config(seed uint64) Config {
	cfg := Config{MaxRuns: b.maxRuns, FaultPackets: b.faultPk, ShrinkBudget: -1}
	cfg.Stress.Seed = seed
	cfg.Stress.Nodes = b.nodes
	cfg.Stress.Ops = b.ops
	cfg.Stress.Lines = b.lines
	cfg.Stress.Mix = b.mix
	Mutations[b.name](&cfg.Stress)
	return cfg
}

// Every deliberate protocol bug in the registry must fall to the explorer
// within its row's schedule budget — this is the tool proving it can find
// real interleaving-dependent bugs, not just replay them.
func TestExplorerFindsEveryMutation(t *testing.T) {
	if len(mutationBudgets) != len(Mutations) {
		t.Fatalf("budget table covers %d mutations, registry has %d", len(mutationBudgets), len(Mutations))
	}
	for _, b := range mutationBudgets {
		b := b
		t.Run(b.name, func(t *testing.T) {
			out, err := Explore(b.config(1))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Found {
				t.Fatalf("not found within %d runs (%d executed, exhausted=%v)",
					b.maxRuns, out.Runs, out.Exhausted)
			}
			t.Logf("found in %d runs, %d choice points, %d-step trace",
				out.Runs, out.ChoicePoints, len(out.Trace))
			// And the counterexample must reproduce.
			res, _, err := Replay(b.config(1), out.Trace)
			if err != nil {
				t.Fatalf("counterexample replay: %v", err)
			}
			if !res.Failed() {
				t.Fatal("counterexample does not replay to a failure")
			}
		})
	}
}

// The two wire-fault-dependent mutations must NOT be findable with the
// fault branching off: this pins down that the drop/dup choice points are
// load-bearing, not redundant with schedule choice.
func TestWireFaultMutationsNeedFaultBranching(t *testing.T) {
	for _, name := range []string{"accept-stale", "no-retransmit"} {
		t.Run(name, func(t *testing.T) {
			var b mutationBudget
			for _, row := range mutationBudgets {
				if row.name == name {
					b = row
				}
			}
			cfg := b.config(1)
			cfg.FaultPackets = 0 // perfect wires
			out, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Found {
				t.Fatalf("%s found on perfect wires — fault branching is redundant?\n%s",
					name, out.Result.Report())
			}
		})
	}
}

// Every registry mutation that fails on perfect wires at seeds 1-3 (8
// nodes x 400 ops) must shrink, at budgets 60, 120 and 200, to a program
// that still fails, and the repros must average under two ops. A shrinker
// that cannot delete a node's last op leaves one op per node and averages
// 5.75 here; EXPERIMENTS.md has the per-case table.
func TestShrinkMutationTable(t *testing.T) {
	cases, total := 0, 0
	for _, name := range MutationNames() {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := stress.DefaultConfig(seed)
			cfg.Ops = 400
			Mutations[name](&cfg)
			full := stress.Generate(cfg)
			if res, err := stress.Execute(cfg, full); err != nil || !res.Failed() {
				continue // accept-stale and no-retransmit need lossy wires
			}
			for _, budget := range []int{60, 120, 200} {
				prog, res, err := stress.Shrink(cfg, full, budget)
				if err != nil {
					t.Fatal(err)
				}
				re, err := stress.Execute(cfg, prog)
				if err != nil || !res.Failed() || !re.Failed() {
					t.Errorf("%s seed %d budget %d: shrunk program no longer fails", name, seed, budget)
				}
				cases++
				total += stress.CountOps(prog)
			}
		}
	}
	if cases != 81 {
		t.Errorf("%d failing cases, want 81 (9 mutations x 3 seeds x 3 budgets)", cases)
	}
	if total >= 2*cases {
		t.Errorf("shrunk repros sum to %d ops over %d cases, want under %d", total, cases, 2*cases)
	}
}
