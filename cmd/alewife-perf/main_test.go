package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySizes keeps the suite fast enough for unit tests; runCheck replays
// the same sizing because it resolves through sizesFor too.
func tinySizes(t *testing.T) {
	t.Helper()
	old := sizesFor
	sizesFor = func(bool) suiteSizes {
		return suiteSizes{
			churnN: 2_000, switchN: 500, seedOps: 50,
			pingpongN: 500, soloN: 1_000,
			dirAcc: 200, meshPkt: 2_000, dmaMsgs: 100,
			lossPkt: 2_000, batchSeeds: 2, benchNodes: 4,
		}
	}
	t.Cleanup(func() { sizesFor = old })
}

func runPerf(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestSnapshotRoundTripAndCheck(t *testing.T) {
	tinySizes(t)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	// -parallel 1 skips the serial-vs-parallel comparisons (meaningless
	// with one worker) and keeps the test fast.
	out, errOut, code := runPerf(t, "-quick", "-attrib", "-parallel", "1", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "event-churn") || !strings.Contains(out, "attribution recorded") {
		t.Errorf("summary output malformed:\n%s", out)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Workloads) == 0 || len(snap.Attribution) == 0 {
		t.Fatalf("snapshot missing sections: %d workloads, %d attribution", len(snap.Workloads), len(snap.Attribution))
	}
	for _, a := range snap.Attribution {
		if a.Shares["compute"] <= 0 {
			t.Errorf("%s: no compute share recorded: %v", a.Name, a.Shares)
		}
	}

	// A fresh run checked against its own snapshot must pass: allocs are
	// deterministic and attribution shares exactly reproducible. Wall-clock
	// at these sizes swings tens of percent run to run, so a huge ns/op
	// tolerance leaves allocs and attribution to decide.
	checkOut, checkErr, code := runPerf(t, "-check", path, "-tolerance", "1000")
	if code != 0 {
		t.Fatalf("self-check failed (exit %d):\n%s%s", code, checkOut, checkErr)
	}
	if !strings.Contains(checkOut, "all workloads within tolerance") {
		t.Errorf("check output malformed:\n%s", checkOut)
	}
	if !strings.Contains(checkOut, "attrib-jacobi-hybrid") {
		t.Errorf("check skipped attribution gate:\n%s", checkOut)
	}
}

func TestNetLossWorkloadsDeliverEverything(t *testing.T) {
	const total = 2_000
	for _, rate := range []float64{0, 0.001, 0.01} {
		if got := netLoss(rate, total); got != total {
			t.Errorf("netLoss(%g): delivered %d of %d packets", rate, got, total)
		}
	}
	// Same seed, same schedule: the workload must be reproducible for the
	// ns/op gate to mean anything.
	if a, b := netLoss(0.01, total), netLoss(0.01, total); a != b {
		t.Errorf("netLoss not deterministic: %d vs %d", a, b)
	}
}

func TestNetLossFamilyInSnapshot(t *testing.T) {
	tinySizes(t)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	out, errOut, code := runPerf(t, "-quick", "-parallel", "1", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, name := range []string{"net-loss-0", "net-loss-0.1", "net-loss-1"} {
		if !strings.Contains(out, name) {
			t.Errorf("summary missing %q:\n%s", name, out)
		}
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	tinySizes(t)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if _, errOut, code := runPerf(t, "-quick", "-parallel", "1", "-out", path); code != 0 {
		t.Fatalf("baseline run failed: %s", errOut)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	// Doctor the baseline into an impossible standard: any real run is now
	// a regression.
	for i := range snap.Workloads {
		snap.Workloads[i].NSPerOp = 1e-9
		snap.Workloads[i].AllocsPerOp = -1
	}
	doctored, _ := json.Marshal(snap)
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runPerf(t, "-check", path)
	if code != 1 {
		t.Fatalf("doctored baseline passed (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(errOut, "regressed against") {
		t.Errorf("regression report malformed:\n%s%s", out, errOut)
	}
}

// A snapshot from a host of another shape must not gate wall-clock — but
// allocs/op still must.
func TestCheckSkipsTimingAcrossHostShapes(t *testing.T) {
	tinySizes(t)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if _, errOut, code := runPerf(t, "-quick", "-parallel", "1", "-out", path); code != 0 {
		t.Fatalf("baseline run failed: %s", errOut)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	snap.CPUs++
	for i := range snap.Workloads {
		snap.Workloads[i].NSPerOp = 1e-9 // any real run is slower
	}
	write := func() {
		t.Helper()
		doctored, _ := json.Marshal(snap)
		if err := os.WriteFile(path, doctored, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write()
	out, errOut, code := runPerf(t, "-check", path)
	if code != 0 {
		t.Fatalf("timing gated across host shapes (exit %d):\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "host shape differs") {
		t.Errorf("no host-shape note:\n%s", out)
	}

	snap.Workloads[0].AllocsPerOp = -1
	write()
	out, errOut, code = runPerf(t, "-check", path)
	if code != 1 || !strings.Contains(errOut, snap.Workloads[0].Name) {
		t.Fatalf("allocs not gated across host shapes (exit %d):\n%s%s", code, out, errOut)
	}
}

func TestCheckFlagsAttributionDrift(t *testing.T) {
	tinySizes(t)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if _, errOut, code := runPerf(t, "-quick", "-attrib", "-parallel", "1", "-out", path); code != 0 {
		t.Fatalf("baseline run failed: %s", errOut)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Attribution[0].Shares["compute"] += 0.5 // fictitious drift
	doctored, _ := json.Marshal(snap)
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runPerf(t, "-check", path)
	if code != 1 {
		t.Fatalf("drifted attribution passed (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "DRIFTED") {
		t.Errorf("drift report malformed:\n%s", out)
	}
}

func TestCheckMissingBaselineExitsOne(t *testing.T) {
	_, errOut, code := runPerf(t, "-check", filepath.Join(t.TempDir(), "nope.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "cannot read baseline") {
		t.Errorf("stderr: %s", errOut)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if _, _, code := runPerf(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
