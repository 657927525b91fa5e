package bench

import (
	"sort"
	"strings"
	"testing"
)

// The registry holds exactly the paper's tables and figures, the Section 2
// experiments that quantify its arguments, and the extensions a claim or a
// diagnosis reads: a new experiment or a retired one must update this list.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"barrier", "invoke", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig1", "prodcons", "transpose",
		"barrier-arity", "barrier-scale",
		"ablate-limitless", "ablate-steal", "ablate-network", "ablate-prefetch",
	}
	sort.Strings(want)
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("registry holds %v, want %v", got, want)
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("nonsense"); ok {
		t.Fatal("Find returned an unknown experiment")
	}
}

func TestExperimentsSorted(t *testing.T) {
	es := Experiments()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("experiments not sorted: %s >= %s", es[i-1].ID, es[i].ID)
		}
	}
}

// runQuick executes one experiment on a small machine and returns output.
func runQuick(t *testing.T, id string, nodes int) string {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s not found", id)
	}
	cfg := Config{Nodes: nodes, Quick: true}
	if err := e.CheckNodes(cfg); err != nil {
		t.Fatalf("test machine rejected by the experiment's node rule: %v", err)
	}
	var sb strings.Builder
	e.Run(cfg, &sb)
	return sb.String()
}

// The node rules never reject the paper's own machine.
func TestNodeRulesAcceptPaperMachine(t *testing.T) {
	for _, e := range Experiments() {
		if err := e.CheckNodes(DefaultConfig()); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestBarrierExperimentOutput(t *testing.T) {
	out := runQuick(t, "barrier", 16)
	if !strings.Contains(out, "shared-memory") || !strings.Contains(out, "message") {
		t.Fatalf("barrier output missing rows:\n%s", out)
	}
	if !strings.Contains(out, "paper") {
		t.Fatalf("barrier output missing paper reference:\n%s", out)
	}
}

func TestInvokeExperimentOutput(t *testing.T) {
	out := runQuick(t, "invoke", 8)
	for _, needle := range []string{"Tinvoker", "Tinvokee", "353", "805"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("invoke output missing %q:\n%s", needle, out)
		}
	}
}

func TestFig7ExperimentOutput(t *testing.T) {
	out := runQuick(t, "fig7", 8)
	for _, needle := range []string{"256", "4096", "nopf_MBps", "msg_MBps"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("fig7 output missing %q:\n%s", needle, out)
		}
	}
}

func TestFig8ExperimentOutput(t *testing.T) {
	out := runQuick(t, "fig8", 8)
	if !strings.Contains(out, "mp_over_sm") {
		t.Fatalf("fig8 output malformed:\n%s", out)
	}
}

func TestFig9QuickRuns(t *testing.T) {
	out := runQuick(t, "fig9", 16)
	if !strings.Contains(out, "speedup") {
		t.Fatalf("fig9 output malformed:\n%s", out)
	}
}

func TestFig10QuickRuns(t *testing.T) {
	out := runQuick(t, "fig10", 16)
	if !strings.Contains(out, "hyb_over_sm") {
		t.Fatalf("fig10 output malformed:\n%s", out)
	}
}

func TestFig11QuickRuns(t *testing.T) {
	out := runQuick(t, "fig11", 16)
	if !strings.Contains(out, "cycles_per_iter") {
		t.Fatalf("fig11 output malformed:\n%s", out)
	}
}

func TestAblationsQuickRun(t *testing.T) {
	for _, id := range []string{"ablate-limitless", "ablate-steal", "ablate-prefetch"} {
		out := runQuick(t, id, 8)
		if len(out) < 40 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// The figure experiments carry cycle-decomposition companions; each row is
// produced by a profiled run whose sum-to-elapsed invariant is asserted
// inside addAttribRow (the run panics on violation), so reaching the table
// output proves fig7/fig8's buckets summed exactly to elapsed cycles.
func TestFigAttribTablesPresent(t *testing.T) {
	for id, label := range map[string]string{
		"fig7":  "message-passing",
		"fig8":  "accum-mp",
		"fig9":  "grain-hybrid",
		"fig10": "aq-hybrid",
	} {
		out := runQuick(t, id, 8)
		if !strings.Contains(out, "cycle decomposition") {
			t.Fatalf("%s output missing decomposition table:\n%s", id, out)
		}
		if !strings.Contains(out, label) {
			t.Fatalf("%s decomposition missing row %q:\n%s", id, label, out)
		}
		if !strings.Contains(out, "sync-wait") || !strings.Contains(out, "miss-stall") {
			t.Fatalf("%s decomposition missing bucket columns:\n%s", id, out)
		}
	}
}
