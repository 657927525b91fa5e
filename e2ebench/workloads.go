package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"alewife/internal/apps"
	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/stress"
)

// job is one simulation of a workload: a fresh machine, one experiment call and
// one check of the experiment's answer against a reference computed before any
// timing starts. exec stamps the boundaries between its set-up, simulate
// and check phases into mk.
type job struct {
	id   string
	exec func(mk *marks) outcome
}

// marks are the host-clock boundaries of one execution of a run.
type marks struct {
	start, simulate, check, end time.Time
}

// outcome is what one execution produced.
type outcome struct {
	cycles uint64           // simulated cycles the engine advanced
	answer uint64           // the experiment's result, as bits
	counts map[string]int64 // m.St.Global.Snapshot() after the run
	err    error            // wrong answer, oracle violation, panic or deadlock
}

// scale sizes the workloads. The paper's own inputs are the full scale; the
// tiny scale exists so the smoke test can run every workload in seconds.
type scale struct {
	name         string
	nodes        int
	copyBytes    []int // fig7 and fig8 block sizes
	grainDepth   int
	grainDelays  []uint64
	aqTols       []float64
	jacobiGrids  []int
	jacobiIters  int
	barrierSyncs int
	invokeReps   int
	warmGrid     int // the warm-up Jacobi grid
	stressSeeds  int
	lossySeeds   int
	stressOps    int
}

var scales = map[string]scale{
	"full": {
		name: "full", nodes: 64,
		copyBytes:   []int{64, 128, 256, 512, 1024, 2048, 4096},
		grainDepth:  12,
		grainDelays: []uint64{0, 100, 200, 400, 600, 800, 1000},
		aqTols:      []float64{0.05, 0.02, 0.008, 0.003, 0.001},
		jacobiGrids: []int{32, 64, 128}, jacobiIters: 10,
		barrierSyncs: 8, invokeReps: 5, warmGrid: 32,
		stressSeeds: 96, lossySeeds: 64, stressOps: 5000,
	},
	"tiny": {
		name: "tiny", nodes: 16,
		copyBytes:   []int{64, 512},
		grainDepth:  6,
		grainDelays: []uint64{0, 200},
		aqTols:      []float64{0.05},
		jacobiGrids: []int{16}, jacobiIters: 2,
		barrierSyncs: 4, invokeReps: 3, warmGrid: 16,
		stressSeeds: 3, lossySeeds: 3, stressOps: 300,
	},
}

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"paper-sm", "paper-mp", "stress", "stress-lossy"}

// workload is a named, ordered list of runs plus an untimed warm-up run.
type workload struct {
	name string
	// seedFree reports that the simulated results do not depend on the
	// seed: the paper fixes its own inputs and the seed only shuffles the
	// run order.
	seedFree bool
	warmup   job
	runs     []job
}

// refs are the reference answers of the paper experiments. They are computed
// on the host (or, for aq, on a 1-node machine) before timing starts.
type refs struct {
	grainSum uint64
	aq       map[float64]float64 // tol -> sequential integral
	jacobi   map[int]float64     // grid -> checksum
}

func computeRefs(sc scale) *refs {
	r := &refs{grainSum: 1 << sc.grainDepth, aq: map[float64]float64{}, jacobi: map[int]float64{}}
	for _, tol := range sc.aqTols {
		r.aq[tol] = apps.AQSequential(machine.New(machine.DefaultConfig(1)), tol).Integral
	}
	for _, g := range sc.jacobiGrids {
		r.jacobi[g] = apps.JacobiReference(g, sc.jacobiIters)
	}
	return r
}

// newWorkload builds the named workload for a seed. Paper workloads run in
// an order the seed shuffles; stress workloads run seeds seed, seed+1, ...
// memFault, when set, mutates the coherence protocol of every stress run
// (the failure-accounting test uses it); tamper may corrupt the reference
// answers before the paper runs capture them.
func newWorkload(name string, seed uint64, sc scale, memFault *mem.Fault, tamper func(*refs)) (*workload, error) {
	switch name {
	case "paper-sm", "paper-mp":
		mode := core.ModeSharedMemory
		if name == "paper-mp" {
			mode = core.ModeHybrid
		}
		r := computeRefs(sc)
		if tamper != nil {
			tamper(r)
		}
		runs := paperRuns(mode, sc, r)
		rand.New(rand.NewSource(int64(seed))).Shuffle(len(runs), func(i, j int) {
			runs[i], runs[j] = runs[j], runs[i]
		})
		warm := jacobiRun("warmup", sc, mode, sc.warmGrid, apps.JacobiReference(sc.warmGrid, sc.jacobiIters))
		return &workload{name: name, seedFree: true, warmup: warm, runs: runs}, nil
	case "stress", "stress-lossy":
		lossy := name == "stress-lossy"
		n := sc.stressSeeds
		if lossy {
			n = sc.lossySeeds
		}
		w := &workload{name: name}
		for i := 0; i < n; i++ {
			w.runs = append(w.runs, stressRun(name, seed+uint64(i), sc.stressOps, lossy, memFault))
		}
		// The warm-up is a seed just outside the timed range.
		w.warmup = stressRun(name, seed+uint64(n), sc.stressOps, lossy, nil)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// paperRun wraps one paper experiment. machine.New and, unless the
// experiment runs on the bare machine, core.NewDefault are its set-up;
// drive is the simulate call and check judges the answer.
func paperRun(id string, nodes int, mode core.Mode, bare bool,
	drive func(m *machine.Machine, rt *core.RT) uint64,
	check func(answer uint64, counts map[string]int64) error) job {
	return job{id: id, exec: func(mk *marks) outcome {
		m := machine.New(machine.DefaultConfig(nodes))
		var rt *core.RT
		if !bare {
			rt = core.NewDefault(m, mode)
		}
		mk.simulate = time.Now()
		ans := drive(m, rt)
		mk.check = time.Now()
		out := outcome{cycles: uint64(m.Eng.Now()), answer: ans, counts: m.St.Global.Snapshot()}
		out.err = check(ans, out.counts)
		return out
	}}
}

// wantEqual checks an exact integer answer.
func wantEqual(want uint64) func(uint64, map[string]int64) error {
	return func(got uint64, _ map[string]int64) error {
		if got != want {
			return fmt.Errorf("answer %d, want %d", got, want)
		}
		return nil
	}
}

// wantFloat checks a floating-point answer carried as bits.
func wantFloat(want, tol float64) func(uint64, map[string]int64) error {
	return func(got uint64, _ map[string]int64) error {
		if v := math.Float64frombits(got); math.Abs(v-want) > tol {
			return fmt.Errorf("answer %v, want %v (tolerance %g)", v, want, tol)
		}
		return nil
	}
}

func jacobiRun(id string, sc scale, mode core.Mode, g int, want float64) job {
	return paperRun(id, sc.nodes, mode, false, func(_ *machine.Machine, rt *core.RT) uint64 {
		return math.Float64bits(apps.Jacobi(rt, g, sc.jacobiIters).Checksum)
	}, wantFloat(want, 1e-6))
}

// paperRuns lists the runs of one half of the paper's experiments: fig7 copies
// and fig8 accum with the mode's mechanisms, then fig9 grain, fig10 aq,
// fig11 jacobi, the barrier and remote invocation under the mode's runtime.
func paperRuns(mode core.Mode, sc scale, r *refs) []job {
	tag := "sm"
	if mode == core.ModeHybrid {
		tag = "mp"
	}
	var runs []job
	for _, bytes := range sc.copyBytes {
		words := uint64(bytes / mem.WordBytes)
		kinds := []apps.CopyKind{apps.CopyNoPrefetch, apps.CopyPrefetch}
		if mode == core.ModeHybrid {
			kinds = []apps.CopyKind{apps.CopyMessage}
		}
		for _, kind := range kinds {
			runs = append(runs, paperRun(fmt.Sprintf("fig7/%s/%d", kind, bytes), sc.nodes, mode, false,
				func(_ *machine.Machine, rt *core.RT) uint64 {
					return uint64(apps.Memcpy(rt, 1, bytes, kind).Bytes)
				}, wantEqual(uint64(bytes))))
		}
		if mode == core.ModeHybrid {
			runs = append(runs, paperRun(fmt.Sprintf("fig8/mp/%d", bytes), sc.nodes, mode, false,
				func(_ *machine.Machine, rt *core.RT) uint64 { return apps.AccumMP(rt, 1, words).Sum },
				wantEqual(apps.AccumExpected(words))))
		} else {
			runs = append(runs, paperRun(fmt.Sprintf("fig8/sm/%d", bytes), sc.nodes, mode, true,
				func(m *machine.Machine, _ *core.RT) uint64 { return apps.AccumSM(m, 1, words).Sum },
				wantEqual(apps.AccumExpected(words))))
		}
	}
	for _, l := range sc.grainDelays {
		runs = append(runs, paperRun(fmt.Sprintf("fig9/%s/l=%d", tag, l), sc.nodes, mode, false,
			func(_ *machine.Machine, rt *core.RT) uint64 { return apps.GrainParallel(rt, sc.grainDepth, l).Sum },
			wantEqual(r.grainSum)))
	}
	for _, tol := range sc.aqTols {
		runs = append(runs, paperRun(fmt.Sprintf("fig10/%s/tol=%g", tag, tol), sc.nodes, mode, false,
			func(_ *machine.Machine, rt *core.RT) uint64 {
				return math.Float64bits(apps.AQParallel(rt, tol).Integral)
			}, wantFloat(r.aq[tol], 1e-9)))
	}
	for _, g := range sc.jacobiGrids {
		runs = append(runs, jacobiRun(fmt.Sprintf("fig11/%s/g=%d", tag, g), sc, mode, g, r.jacobi[g]))
	}
	syncs := sc.barrierSyncs
	runs = append(runs, paperRun("barrier/"+tag, sc.nodes, mode, false,
		func(_ *machine.Machine, rt *core.RT) uint64 {
			return rt.SPMD(func(p *machine.Proc) {
				for i := 0; i < syncs; i++ {
					rt.Barrier().Sync(p)
				}
			})
		},
		func(_ uint64, counts map[string]int64) error {
			if got, want := counts["rts.barriers"], int64(sc.nodes*syncs); got != want {
				return fmt.Errorf("%d barrier arrivals, want %d", got, want)
			}
			return nil
		}))
	runs = append(runs, paperRun("invoke/"+tag, sc.nodes, mode, false,
		func(_ *machine.Machine, rt *core.RT) uint64 { return invoke(rt, sc.invokeReps) },
		wantEqual(uint64(sc.invokeReps))))
	return runs
}

// invoke has node 0 invoke reps threads on a mid-distance node, one at a
// time, each resolving a future with 1; the answer is the sum of the
// futures.
func invoke(rt *core.RT, reps int) uint64 {
	dst := rt.Cores() / 2
	sum, _ := rt.Run(func(tc *core.TC) uint64 {
		var got uint64
		for i := 0; i < reps; i++ {
			f := rt.NewFuture(tc.ID())
			rt.Invoke(tc.P, dst, rt.NewInvokeTask(func(c *core.TC) { f.Resolve(c, 1) }))
			got += f.Touch(tc)
			tc.Elapse(2000) // let the remote scheduler settle back to idle
		}
		return got
	})
	return sum
}

// stressRun wraps one fuzzer seed with every oracle on. Its set-up is
// stress.Run's entry up to Config.Hook; simulate runs from Hook to the
// return of stress.Run, which includes the oracles' final sweeps.
func stressRun(workload string, seed uint64, ops int, lossy bool, memFault *mem.Fault) job {
	return job{id: fmt.Sprintf("%s/%#x", workload, seed), exec: func(mk *marks) outcome {
		cfg := stress.DefaultConfig(seed)
		cfg.Ops = ops
		if lossy {
			cfg.NetFault = stress.LossFromSeed(seed)
		}
		cfg.MemFault = memFault
		var m *machine.Machine
		cfg.Hook = func(hm *machine.Machine) {
			m = hm
			mk.simulate = time.Now()
		}
		res, err := stress.Run(cfg)
		mk.check = time.Now()
		if err != nil {
			return outcome{err: err}
		}
		out := outcome{cycles: uint64(res.Cycles), answer: uint64(res.TotalOps), counts: m.St.Global.Snapshot()}
		if res.Failed() {
			out.err = fmt.Errorf("%d oracle violations, first: %s", len(res.Violations), res.Violations[0])
		} else if want := int64(cfg.Nodes * ops); res.TotalOps != want {
			out.err = fmt.Errorf("%d ops executed, want %d", res.TotalOps, want)
		}
		return out
	}}
}
