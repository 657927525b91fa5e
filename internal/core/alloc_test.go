package core_test

import (
	"runtime"
	"testing"

	"alewife/internal/apps"
	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/stats"
)

// forkJoinRuns are the fork-join workloads the allocation checks time: aq
// forks three of four quadrants per cell, grain one of two subtrees.
var forkJoinRuns = []struct {
	name string
	run  func(rt *core.RT)
}{
	{"aq", func(rt *core.RT) { apps.AQParallel(rt, 0.01) }},
	{"grain", func(rt *core.RT) { apps.GrainParallel(rt, 10, 0) }},
}

// allocPerThread runs one fork-join workload on a fresh 16-node runtime
// and returns the host heap allocations and bytes allocated per started
// thread, machine and runtime set-up excluded.
func allocPerThread(run func(rt *core.RT), mode core.Mode) (mallocs, bytes float64, threads int64) {
	rt := core.NewDefault(machine.New(machine.DefaultConfig(16)), mode)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(rt)
	runtime.ReadMemStats(&after)
	threads = rt.M.St.Global.Get(stats.ThreadsCreated)
	return float64(after.Mallocs-before.Mallocs) / float64(threads),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(threads), threads
}

// A started thread reuses a finished thread's record, Proc and context and
// a finished fork's task record, and its name is formatted only if printed:
// what a fork still allocates is its future, the child closure and, in
// hybrid mode, message operands. Building each record afresh, with a
// formatted name, cost 16 to 20 allocations per thread on these runs.
func TestForkAllocsPerThread(t *testing.T) {
	const bound = 10
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		for _, r := range forkJoinRuns {
			per, _, threads := allocPerThread(r.run, mode)
			t.Logf("%s/%v: %.2f allocations per thread over %d threads", r.name, mode, per, threads)
			if per > bound {
				t.Errorf("%s/%v: %.2f allocations per started thread, want at most %d", r.name, mode, per, bound)
			}
		}
	}
}

// The simulated store and the directory allocate host memory by the page
// and the 64-line chunk as a run first touches them, so a fork pays for
// the store pages and directory chunks its future, task descriptor and
// queue slot reach. When each node's store was one slice grown by
// doubling, an SM fork cost 1,583 (aq) and 3,993 (grain) bytes per
// started thread, most of it copying a node's words into a slice twice
// the size; hybrid forks cost 613 and 753. With 256-word pages and a
// 48-byte directory entry they cost 774, 1,286, 415 and 601 (781, 1,316,
// 419 and 615 under the race detector).
func TestForkBytesPerThread(t *testing.T) {
	bounds := map[core.Mode]map[string]float64{
		core.ModeSharedMemory: {"aq": 1100, "grain": 2000},
		core.ModeHybrid:       {"aq": 600, "grain": 900},
	}
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		for _, r := range forkJoinRuns {
			_, per, threads := allocPerThread(r.run, mode)
			t.Logf("%s/%v: %.0f bytes per thread over %d threads", r.name, mode, per, threads)
			if bound := bounds[mode][r.name]; per > bound {
				t.Errorf("%s/%v: %.0f bytes allocated per started thread, want at most %.0f", r.name, mode, per, bound)
			}
		}
	}
}

// BenchmarkForkJoin times a 16-node fork-join run per iteration, set-up
// included; allocs/op divided by the run's thread count is the per-fork
// host allocation TestForkAllocsPerThread and TestForkBytesPerThread
// bound.
func BenchmarkForkJoin(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		for _, r := range forkJoinRuns {
			b.Run(r.name+"/"+mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.run(core.NewDefault(machine.New(machine.DefaultConfig(16)), mode))
				}
			})
		}
	}
}
