// Command alewife-perf runs a fixed simulator workload suite and writes a
// machine-readable perf snapshot (BENCH_sim.json by default): wall-clock,
// throughput and allocation rate for the engine's hot paths, plus
// serial-vs-parallel wall-clock for the batch workloads. Later PRs gate on
// this file — a hot-path regression shows up as ops_per_sec dropping or
// allocs_per_op rising against the committed snapshot.
//
// Usage:
//
//	alewife-perf                  # full suite, writes BENCH_sim.json
//	alewife-perf -quick -out -    # trimmed suite to stdout
//	alewife-perf -check           # compare a fresh run against BENCH_sim.json
//	make perf                     # the Makefile entry point
//	make perf-check               # the tier-1 regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"alewife/internal/apps"
	"alewife/internal/bench"
	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/sim"
	"alewife/internal/sim/fanout"
	"alewife/internal/stress"
)

// Metric is one workload's measurement. Ops is the workload's natural unit
// (events, context switches, stress ops, simulated cycles — named in Unit).
type Metric struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Ops         int64   `json:"ops"`
	WallNS      int64   `json:"wall_ns"`
	NSPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ParallelMetric compares one batch workload serial vs fanned-out. On a
// single-CPU host (or GOMAXPROCS=1) the comparison is meaningless — both
// runs execute serially — so it is marked Skipped instead of recording a
// fictitious ~1.0x speedup.
type ParallelMetric struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	SerialNS   int64   `json:"serial_ns"`
	ParallelNS int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	Skipped    bool    `json:"skipped,omitempty"`
}

// AttribMetric records one profiled workload's cycle-attribution shares
// (bucket name -> share of total machine cycles). The simulator is
// deterministic, so shares are exactly reproducible; perf-check flags any
// drift beyond a small tolerance as a behavioral change.
type AttribMetric struct {
	Name   string             `json:"name"`
	Shares map[string]float64 `json:"shares"`
}

// Snapshot is the BENCH_sim.json schema.
type Snapshot struct {
	Generated   string           `json:"generated"`
	GoVersion   string           `json:"go_version"`
	CPUs        int              `json:"cpus"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	Quick       bool             `json:"quick"`
	Workloads   []Metric         `json:"workloads"`
	Parallel    []ParallelMetric `json:"parallel"`
	Attribution []AttribMetric   `json:"attribution,omitempty"`
}

// measure times fn and attributes wall and allocations to ops units.
// Workloads run on this goroutine only, so a MemStats delta is exact.
func measure(name, unit string, fn func() int64) Metric {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	m := Metric{Name: name, Unit: unit, Ops: ops, WallNS: wall.Nanoseconds()}
	if ops > 0 {
		m.NSPerOp = float64(wall.Nanoseconds()) / float64(ops)
		m.OpsPerSec = float64(ops) / wall.Seconds()
		m.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		m.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	return m
}

// churnPeriods are the periods of eventChurn's timers.
var churnPeriods = [...]uint64{1, 2, 3, 5, 7, 11, 13, 1024}

// churn is eventChurn's timer population, one sink for all of it: a
// timer's op indexes its period. It halts the engine once remaining
// events have fired.
type churn struct {
	e         *sim.Engine
	remaining int64
}

// Fire implements sim.Sink: one timer fires and reschedules itself.
func (s *churn) Fire(op uint32, _, _ uint64) {
	s.remaining--
	if s.remaining > 0 {
		s.e.AtSink(s.e.Now()+churnPeriods[op], s, op, 0, 0)
	} else {
		s.e.Halt()
	}
}

// eventChurn drives a standing population of self-rescheduling timers —
// the engine's purest hot path — for total sink events.
func eventChurn(total int64) int64 {
	e := sim.NewEngine()
	s := &churn{e: e, remaining: total}
	const standing = 512
	for i := 0; i < standing; i++ {
		op := uint32(i % len(churnPeriods))
		e.AtSink(churnPeriods[op], s, op, 0, 0)
	}
	e.Run()
	return total
}

// contextSwitch drives one context through n Sleep(1) calls, each a
// self-wake its own dispatch loop consumes with no coroutine switch.
func contextSwitch(n int64) int64 {
	e := sim.NewEngine()
	e.Spawn("perf", 0, func(c *sim.Context) {
		for i := int64(0); i < n; i++ {
			c.Sleep(1)
		}
	})
	e.Run()
	return n
}

// stressSeed runs one full fuzzer seed and reports executed stress ops.
func stressSeed(ops int) int64 {
	cfg := stress.DefaultConfig(1)
	cfg.Ops = ops
	res, err := stress.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res.Failed() {
		fmt.Fprint(os.Stderr, res.Report())
		os.Exit(1)
	}
	return res.TotalOps
}

// jacobi runs the paper's relaxation kernel and reports simulated cycles —
// engine throughput in sim-cycles per wall second.
func jacobi(nodes, grid, iters int) int64 {
	m := machine.New(machine.DefaultConfig(nodes))
	rt := core.NewDefault(m, core.ModeHybrid)
	apps.Jacobi(rt, grid, iters)
	return int64(m.Eng.Now())
}

// suiteSizes are the workload sizes for the full and quick suites. -check
// replays whichever sizing the baseline snapshot was taken with.
type suiteSizes struct {
	churnN, switchN int64
	pingpongN       int64
	soloN           int64
	seedOps         int
	dirAcc, meshPkt int64
	dmaMsgs         int64
	lossPkt         int64
	batchSeeds      int
	benchNodes      int
}

// sizesFor resolves the suite sizing; a variable so tests can substitute
// tiny workloads.
var sizesFor = sizes

func sizes(quick bool) suiteSizes {
	s := suiteSizes{
		churnN: 2_000_000, switchN: 200_000, seedOps: 2000,
		pingpongN: 200_000, soloN: 400_000,
		dirAcc: 30_000, meshPkt: 1_000_000, dmaMsgs: 10_000,
		lossPkt: 300_000, batchSeeds: 16, benchNodes: 16,
	}
	if quick {
		s.churnN, s.switchN, s.seedOps = 500_000, 50_000, 500
		s.pingpongN, s.soloN = 50_000, 100_000
		s.dirAcc, s.meshPkt, s.dmaMsgs = 8_000, 250_000, 2_500
		s.lossPkt, s.batchSeeds = 80_000, 8
	}
	return s
}

// runWorkloads executes the serial workload suite at the given sizing.
func runWorkloads(s suiteSizes) []Metric {
	rs := runnersFor(s)
	ms := make([]Metric, 0, len(rs))
	for _, r := range rs {
		ms = append(ms, measure(r.name, r.unit, r.fn))
	}
	return ms
}

// runOneWorkload re-runs a single named workload (the -check retry path).
func runOneWorkload(name string, s suiteSizes) (Metric, bool) {
	for _, m := range runnersFor(s) {
		if m.name == name {
			return measure(m.name, m.unit, m.fn), true
		}
	}
	return Metric{}, false
}

type runner struct {
	name, unit string
	fn         func() int64
}

func runnersFor(s suiteSizes) []runner {
	return []runner{
		{"event-churn", "events", func() int64 { return eventChurn(s.churnN) }},
		{"context-switch", "switches", func() int64 { return contextSwitch(s.switchN) }},
		// context-switch and ctx-solo-compute are both one context
		// sleeping alone (Sleep(1) and Sleep(5)), all self-wakes;
		// ctx-pingpong is all context-to-context handoffs, so a scheduler
		// regression names the path it hit.
		{"ctx-pingpong", "switches", func() int64 { return ctxPingPong(s.pingpongN) }},
		{"ctx-solo-compute", "sleeps", func() int64 { return ctxSoloCompute(s.soloN) }},
		{"stress-seed", "stress-ops", func() int64 { return stressSeed(s.seedOps) }},
		{"jacobi-32x32x8", "sim-cycles", func() int64 { return jacobi(s.benchNodes, 32, 8) }},
		{"dir-churn", "accesses", func() int64 { return dirChurn(s.dirAcc) }},
		{"mesh-saturation", "packets", func() int64 { return meshSaturation(s.meshPkt) }},
		{"dma-bulk", "words", func() int64 { return dmaBulk(s.dmaMsgs) }},
		// The net-loss family prices reliable delivery against bare
		// mesh-saturation: 0% isolates the sublayer's fixed overhead
		// (headers, acks, windows), 0.1% and 1% add recovery.
		{"net-loss-0", "packets", func() int64 { return netLoss(0, s.lossPkt) }},
		{"net-loss-0.1", "packets", func() int64 { return netLoss(0.001, s.lossPkt) }},
		{"net-loss-1", "packets", func() int64 { return netLoss(0.01, s.lossPkt) }},
	}
}

// compare times a batch workload serial then fanned out over workers.
func compare(name string, workers int, run func(workers int)) ParallelMetric {
	if workers < 2 {
		// One worker: "parallel" degenerates to a second serial run; the
		// ~1.0x result would be noise dressed up as a speedup.
		return ParallelMetric{Name: name, Workers: workers, Skipped: true}
	}
	s := time.Now()
	run(1)
	serial := time.Since(s)
	p := time.Now()
	run(workers)
	par := time.Since(p)
	return ParallelMetric{
		Name: name, Workers: workers,
		SerialNS: serial.Nanoseconds(), ParallelNS: par.Nanoseconds(),
		Speedup: serial.Seconds() / par.Seconds(),
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alewife-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_sim.json", "output path ('-' for stdout)")
	quick := fs.Bool("quick", false, "trimmed workloads (CI smoke)")
	parallel := fs.Int("parallel", 0, "workers for the parallel comparisons (0 = all cores)")
	check := fs.String("check", "", "compare a fresh run against this snapshot instead of writing (e.g. BENCH_sim.json)")
	tolerance := fs.Float64("tolerance", 0.15, "ns/op regression tolerance for -check")
	allocTol := fs.Float64("alloc-tolerance", 0.5, "allocs/op regression tolerance for -check")
	attribTol := fs.Float64("attrib-tolerance", 0.02, "absolute bucket-share drift tolerance for -check")
	attrib := fs.Bool("attrib", false, "record cycle-attribution shares of profiled workloads in the snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *check != "" {
		return runCheck(*check, *tolerance, *allocTol, *attribTol, stdout, stderr)
	}

	s := sizesFor(*quick)
	workers := fanout.Workers(*parallel)
	fanout.WarnIfSerial(stderr, *parallel)

	snap := Snapshot{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	snap.Workloads = runWorkloads(s)
	if *attrib {
		snap.Attribution = attribWorkloads(s)
	}

	runSeeds := func(w int) {
		fanout.Run(s.batchSeeds, w, func(i int) int64 {
			cfg := stress.DefaultConfig(uint64(i))
			cfg.Ops = s.seedOps
			res, err := stress.Run(cfg)
			if err != nil {
				panic(err)
			}
			return res.TotalOps
		})
	}
	runBench := func(w int) {
		cfg := bench.Config{Nodes: s.benchNodes, Quick: true, Parallel: w}
		bench.RunAll(cfg, discard{})
	}
	snap.Parallel = []ParallelMetric{
		compare(fmt.Sprintf("stress-%d-seeds", s.batchSeeds), workers, runSeeds),
		compare("bench-all-quick", workers, runBench),
	}

	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	blob = append(blob, '\n')
	if *out == "-" {
		stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	for _, m := range snap.Workloads {
		fmt.Fprintf(stdout, "%-16s %12.1f %s/s  %8.2f ns/op  %6.2f allocs/op\n",
			m.Name, m.OpsPerSec, m.Unit, m.NSPerOp, m.AllocsPerOp)
	}
	for _, p := range snap.Parallel {
		if p.Skipped {
			fmt.Fprintf(stdout, "%-16s skipped (only %d worker available)\n", p.Name, p.Workers)
			continue
		}
		fmt.Fprintf(stdout, "%-16s serial %8.2fs  parallel(%d) %8.2fs  speedup %.2fx\n",
			p.Name, float64(p.SerialNS)/1e9, p.Workers, float64(p.ParallelNS)/1e9, p.Speedup)
	}
	for _, a := range snap.Attribution {
		fmt.Fprintf(stdout, "%-16s attribution recorded (%d buckets)\n", a.Name, len(a.Shares))
	}
	if *out != "-" {
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return 0
}

// discard swallows experiment output during the timing comparison.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
