package main

import (
	"bytes"
	"strings"
	"testing"

	"alewife/internal/bench"
)

func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListShowsAllFigures(t *testing.T) {
	out, _, code := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "barrier"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list missing %q:\n%s", id, out)
		}
	}
}

func TestSingleExperimentRuns(t *testing.T) {
	out, _, code := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"==> fig7", "msg_MBps", "cycle decomposition"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperimentExitsOne(t *testing.T) {
	_, errOut, code := runBench(t, "-experiment", "fig99")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr: %s", errOut)
	}
}

func TestLossFlagChangesResultsDeterministically(t *testing.T) {
	clean, _, code := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	a, _, codeA := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick", "-loss", "0.01")
	b, _, codeB := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick", "-loss", "0.01")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("lossy exits %d, %d", codeA, codeB)
	}
	if a != b {
		t.Fatal("identical lossy invocations produced different output")
	}
	if a == clean {
		t.Fatal("-loss 0.01 changed nothing: faults not reaching the experiment")
	}
	if _, _, code := runBench(t, "-experiment", "fig7", "-loss", "0.9"); code != 2 {
		t.Errorf("absurd -loss: exit %d, want 2", code)
	}
}

func TestNoActionExitsTwo(t *testing.T) {
	if _, _, code := runBench(t); code != 2 {
		t.Errorf("no action: exit %d, want 2", code)
	}
	if _, _, code := runBench(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// Out-of-range flag values are reported in one line with exit 2 — never
// as a panic.
func TestOutOfRangeFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0", "-experiment", "fig7"},
		{"-nodes", "-3", "-list"},
		{"-loss", "0.9", "-list"},
	} {
		out, errOut, code := runBench(t, args...)
		if code != 2 || out != "" || strings.Count(errOut, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", args, code, out, errOut)
		}
	}
}

// A -nodes some selected experiment cannot run is rejected before any
// simulation starts, in one line that names the experiment and its rule.
func TestNodeRulesExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "fig7", "-nodes", "1"}, "fig7 needs at least 2 nodes"},
		{[]string{"-experiment", "ablate-limitless", "-nodes", "1", "-quick"}, "ablate-limitless needs at least 2 nodes"},
		{[]string{"-experiment", "prodcons", "-nodes", "1"}, "prodcons needs at least 2 nodes"},
		{[]string{"-experiment", "fig11", "-nodes", "3"}, "3x1 processor grid, which does not divide its 32x32"},
		{[]string{"-experiment", "fig11", "-nodes", "6", "-quick"}, "3x2 processor grid, which does not divide its 32x32"},
		{[]string{"-experiment", "fig9", "-nodes", "2", "-quick"}, "fig9 cannot run on 2 nodes: the hybrid scheduler livelocks"},
		{[]string{"-experiment", "invoke", "-nodes", "2"}, "invoke cannot run on 2 nodes"},
		{[]string{"-all", "-nodes", "1", "-quick"}, "needs at least 2 nodes"},
		{[]string{"-all", "-nodes", "2", "-quick"}, "livelocks"},
		{[]string{"-all", "-nodes", "5", "-quick"}, "5x1 processor grid"},
	} {
		out, errOut, code := runBench(t, tc.args...)
		if code != 2 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line containing %q",
				tc.args, code, out, errOut, tc.want)
		}
	}
}

// Machine sizes the rules allow still run: the smallest legal size of a
// two-node experiment, and an experiment with no rule on one node.
// fig10's full-scale sweep fits every machine size: DefaultConfig's
// 1<<20 words per node hold its largest runs.
func TestNodeRulesAllowLegalSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig7", "-nodes", "2", "-quick"},
		{"-experiment", "barrier", "-nodes", "1", "-quick"},
	} {
		out, errOut, code := runBench(t, args...)
		if code != 0 || !strings.Contains(out, "==> ") {
			t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
		}
	}
	fig10, ok := bench.Find("fig10")
	if !ok {
		t.Fatal("fig10 not registered")
	}
	for n := 1; n <= 16; n++ {
		if err := fig10.CheckNodes(bench.Config{Nodes: n}); err != nil {
			t.Errorf("fig10 at full scale on %d nodes: %v", n, err)
		}
	}
}
