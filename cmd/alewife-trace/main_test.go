package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTrace(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestBarrierWorkloadOutput(t *testing.T) {
	out, _, code := runTrace(t, "-nodes", "4", "-workload", "barrier", "-tail", "10")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"3 barrier episodes", "events by kind", "barrier", "busiest nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	a, _, codeA := runTrace(t, "-nodes", "4", "-workload", "jacobi")
	b, _, codeB := runTrace(t, "-nodes", "4", "-workload", "jacobi")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exits %d, %d", codeA, codeB)
	}
	if a != b {
		t.Fatal("two identical invocations produced different output")
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	if _, _, code := runTrace(t, "-mode", "bogus"); code == 0 {
		t.Error("bad -mode accepted")
	}
	if _, _, code := runTrace(t, "-workload", "bogus"); code == 0 {
		t.Error("bad -workload accepted")
	}
	if _, _, code := runTrace(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

func TestChromeExportIsValidJSONAndDeterministic(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	for _, p := range []string{p1, p2} {
		if _, errOut, code := runTrace(t, "-nodes", "4", "-workload", "barrier", "-chrome", p); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut)
		}
	}
	a, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("chrome export differs across identical runs")
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export contains no events")
	}
}

func TestLossyTraceShowsRecoveryAndStaysDeterministic(t *testing.T) {
	a, errOut, code := runTrace(t, "-nodes", "4", "-workload", "jacobi", "-loss", "0.01")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"rel.acks", "net.fault"} {
		if !strings.Contains(a, want) {
			t.Errorf("lossy run shows no %q counter:\n%s", want, a)
		}
	}
	b, _, _ := runTrace(t, "-nodes", "4", "-workload", "jacobi", "-loss", "0.01")
	if a != b {
		t.Fatal("identical lossy invocations produced different output")
	}
	if c, _, _ := runTrace(t, "-nodes", "4", "-workload", "jacobi", "-loss", "0.01", "-netseed", "9"); c == a {
		t.Fatal("-netseed did not change the fault schedule")
	}
	if _, _, code := runTrace(t, "-loss", "0.9"); code == 0 {
		t.Error("absurd -loss accepted")
	}
}

func TestAttribFlagPrintsBuckets(t *testing.T) {
	out, errOut, code := runTrace(t, "-nodes", "4", "-workload", "grain", "-attrib")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"cycle attribution", "compute", "sync-wait", "idle"} {
		if !strings.Contains(out, want) {
			t.Errorf("attrib output missing %q:\n%s", want, out)
		}
	}
}

// Out-of-range flag values are reported in one line with exit 1, before
// any machine is built — never as a panic.
func TestOutOfRangeFlagsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0"},
		{"-nodes", "-4", "-workload", "barrier"},
		{"-tail", "-1", "-nodes", "2", "-workload", "barrier"},
		{"-workload", "jacobi", "-nodes", "3"},
	} {
		out, errOut, code := runTrace(t, args...)
		if code != 1 || out != "" || strings.Count(errOut, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and one stderr line", args, code, out, errOut)
		}
	}
}
