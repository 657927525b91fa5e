package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// runCheck is the `make perf-check` regression gate: rerun the workload suite
// at the sizing the baseline snapshot was taken with and fail on material
// regressions — ns/op above baseline*(1+tol) or allocs/op above baseline+allocTol.
// Improvements never fail; commit a refreshed snapshot to ratchet them in.
// Output is a per-workload delta table (baseline ns/op, fresh ns/op, % change)
// and a failure names the offending workloads instead of a bare count.
//
// Wall-clock on a shared CI box is noisy, so a workload that looks regressed
// is retried (best of 3) before the gate fails. Alloc counts are
// deterministic and get no retry benefit, but the retry keeps the minimum of
// those too, which is harmless.
//
// When the baseline carries an attribution section, the profiled workloads
// are re-run and each bucket's cycle share compared within attribTol
// (absolute). Shares are deterministic, so drift is a behavioral change in
// the simulator, not noise — there is no retry.
//
// Wall-clock from a host of a different shape (CPU count or GOMAXPROCS) is
// not comparable — goroutine handoffs, GC workers and the parallel
// harness all scale with it — so then the ns/op gate is skipped with a
// note, and only allocs/op and attribution decide.
func runCheck(path string, tol, allocTol, attribTol float64, stdout, stderr io.Writer) int {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "perf-check: cannot read baseline: %v\n", err)
		return 1
	}
	var base Snapshot
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(stderr, "perf-check: bad baseline %s: %v\n", path, err)
		return 1
	}
	s := sizesFor(base.Quick)
	if cpus, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); base.CPUs != cpus || base.GoMaxProcs != procs {
		fmt.Fprintf(stdout, "host shape differs: snapshot cpus=%d gomaxprocs=%d, this host cpus=%d gomaxprocs=%d; ns/op not gated, allocs/op and attribution are\n",
			base.CPUs, base.GoMaxProcs, cpus, procs)
		tol = math.Inf(1)
	}

	baseline := make(map[string]Metric, len(base.Workloads))
	for _, m := range base.Workloads {
		baseline[m.Name] = m
	}

	const retries = 3
	var offenders []string
	fmt.Fprintf(stdout, "%-18s %-9s  %12s  %12s  %8s  %s\n",
		"workload", "status", "baseline", "now", "delta", "allocs/op (base -> now, limit)")
	for _, fresh := range runWorkloads(s) {
		want, ok := baseline[fresh.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-18s %-9s  new workload, no baseline — skipped\n", fresh.Name, "new")
			continue
		}
		best := fresh
		for try := 1; regressed(best, want, tol, allocTol) && try < retries; try++ {
			again, ok := runOneWorkload(fresh.Name, s)
			if !ok {
				break
			}
			if again.NSPerOp < best.NSPerOp {
				best.NSPerOp = again.NSPerOp
			}
			if again.AllocsPerOp < best.AllocsPerOp {
				best.AllocsPerOp = again.AllocsPerOp
			}
		}
		status := "ok"
		if regressed(best, want, tol, allocTol) {
			status = "REGRESSED"
			offenders = append(offenders, best.Name)
		}
		delta := 0.0
		if want.NSPerOp > 0 {
			delta = (best.NSPerOp - want.NSPerOp) / want.NSPerOp * 100
		}
		fmt.Fprintf(stdout, "%-18s %-9s  %9.2f ns  %9.2f ns  %+7.1f%%  %6.2f -> %6.2f (limit %6.2f)\n",
			best.Name, status,
			want.NSPerOp, best.NSPerOp, delta,
			want.AllocsPerOp, best.AllocsPerOp, want.AllocsPerOp+allocTol)
	}

	failed := len(offenders)
	failed += checkAttribution(base, s, attribTol, stdout)

	if failed > 0 {
		if len(offenders) > 0 {
			fmt.Fprintf(stderr, "perf-check: %d workload(s) regressed against %s: %s\n",
				failed, path, strings.Join(offenders, ", "))
		} else {
			fmt.Fprintf(stderr, "perf-check: %d workload(s) regressed against %s (attribution drift)\n", failed, path)
		}
		return 1
	}
	fmt.Fprintf(stdout, "perf-check: all workloads within tolerance of %s\n", path)
	return 0
}

// checkAttribution gates cycle-attribution drift; returns the number of
// drifted workloads.
func checkAttribution(base Snapshot, s suiteSizes, attribTol float64, stdout io.Writer) int {
	if len(base.Attribution) == 0 {
		return 0
	}
	want := make(map[string]map[string]float64, len(base.Attribution))
	for _, a := range base.Attribution {
		want[a.Name] = a.Shares
	}
	failed := 0
	for _, fresh := range attribWorkloads(s) {
		wantShares, ok := want[fresh.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-20s  new attribution workload, no baseline — skipped\n", fresh.Name)
			continue
		}
		worstDelta, worstBucket := 0.0, "none"
		for _, b := range bucketUnion(fresh.Shares, wantShares) {
			if d := math.Abs(fresh.Shares[b] - wantShares[b]); d > worstDelta {
				worstDelta, worstBucket = d, b
			}
		}
		status := "ok"
		if worstDelta > attribTol {
			status = "DRIFTED"
			failed++
		}
		fmt.Fprintf(stdout, "%-20s %-9s  worst bucket drift %.4f (%s, limit %.4f)\n",
			fresh.Name, status, worstDelta, worstBucket, attribTol)
	}
	return failed
}

func regressed(got, want Metric, tol, allocTol float64) bool {
	return got.NSPerOp > want.NSPerOp*(1+tol) || got.AllocsPerOp > want.AllocsPerOp+allocTol
}
