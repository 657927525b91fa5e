package main

import (
	"bytes"
	"strings"
	"testing"
)

func runStress(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestCleanSeedsExitZero(t *testing.T) {
	out, _, code := runStress(t, "-seeds", "2", "-ops", "200")
	if code != 0 {
		t.Fatalf("clean run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "2 seeds") || !strings.Contains(out, "0 failing") {
		t.Errorf("summary line malformed:\n%s", out)
	}
}

func TestInjectedFaultExitsNonZero(t *testing.T) {
	out, _, code := runStress(t, "-seed", "1", "-ops", "400", "-fault", "drop-inval")
	if code != 1 {
		t.Fatalf("faulty run exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "violation:") || !strings.Contains(out, "reproduce:") {
		t.Errorf("failure report missing repro line:\n%s", out)
	}
}

func TestParallelOutputMatchesSerial(t *testing.T) {
	// The fan-out promise: same seeds, same bytes, regardless of workers.
	serial, _, codeS := runStress(t, "-seeds", "4", "-ops", "300", "-v")
	par, _, codeP := runStress(t, "-seeds", "4", "-ops", "300", "-v", "-parallel", "4")
	if codeS != 0 || codeP != 0 {
		t.Fatalf("exits %d, %d", codeS, codeP)
	}
	if serial != par {
		t.Fatal("-parallel changed the output bytes")
	}
}

func TestLossyCleanSeedsExitZero(t *testing.T) {
	out, _, code := runStress(t, "-loss", "-seeds", "2", "-ops", "200")
	if code != 0 {
		t.Fatalf("lossy clean run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "0 failing") {
		t.Errorf("summary line malformed:\n%s", out)
	}
}

func TestLossyReplayByteIdentical(t *testing.T) {
	a, _, codeA := runStress(t, "-loss", "-seed", "0x2a", "-ops", "300", "-v")
	b, _, codeB := runStress(t, "-loss", "-seed", "0x2a", "-ops", "300", "-v")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exits %d, %d:\n%s", codeA, codeB, a)
	}
	if a != b {
		t.Fatal("replaying a lossy seed changed the output bytes")
	}
	// An explicit -netseed changes the fault schedule but not determinism.
	c, _, _ := runStress(t, "-loss", "-seed", "0x2a", "-netseed", "0x7", "-ops", "300", "-v")
	d, _, _ := runStress(t, "-loss", "-seed", "0x2a", "-netseed", "0x7", "-ops", "300", "-v")
	if c != d {
		t.Fatal("-netseed replay changed the output bytes")
	}
}

func TestReliabilityFaultExitsNonZeroWithLossyRepro(t *testing.T) {
	out, _, code := runStress(t, "-loss", "-seed", "1", "-ops", "400", "-fault", "no-retransmit")
	if code != 1 {
		t.Fatalf("broken-reliability run exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "reproduce: alewife-stress -loss -netseed") {
		t.Errorf("repro line does not carry the loss regime:\n%s", out)
	}
}

func TestUnknownFaultExitsTwo(t *testing.T) {
	_, errOut, code := runStress(t, "-fault", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown -fault") {
		t.Errorf("stderr missing fault list: %s", errOut)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if _, _, code := runStress(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// Out-of-range flag values are reported in one line with exit 2 — never
// as a panic.
func TestOutOfRangeFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "-1"},
		{"-seeds", "0"},
	} {
		out, errOut, code := runStress(t, args...)
		if code != 2 || out != "" || strings.Count(errOut, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", args, code, out, errOut)
		}
	}
}
