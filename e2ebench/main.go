// Command e2ebench is the simulator's end-to-end benchmark. It measures
// simulated work per host second on the paper's own experiments and on the
// protocol stress fuzzer, and says which layer of the simulator the host
// time goes to. BENCHMARK.json at the root of the repository declares its
// command, workloads and metrics; baseline.json next to this file records
// the host shape, the simulated-result digests and the measured spread.
//
// Usage, from the root of a checkout (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload paper-sm --seed 1 --seconds 10 --trace 0
//
// Each invocation runs one workload, serially, in its own process:
//
//   - paper-sm: the shared-memory halves of the paper's experiments on 64 nodes
//     (fig7 copies with and without prefetching, fig8 accum, fig9 grain,
//     fig10 aq, fig11 jacobi, the barrier and remote invocation under the
//     shared-memory runtime). It exercises the coherence protocol (mem)
//     and the shared-memory scheduler.
//   - paper-mp: the same experiments with the message-passing mechanisms (fig7
//     and fig8 by bulk message, the hybrid runtime). Same applications,
//     mechanism swapped: core and cmmu gain, mem loses about half its share.
//   - stress: fuzzer seeds seed..seed+95, 5000 ops each, perfect wires,
//     every oracle on. mem, checkers, instr and mesh do the work; there is
//     no runtime and almost no set-up or GC cost.
//   - stress-lossy: seeds seed..seed+63 over stress.LossFromSeed wires, so
//     the reliable-delivery sublayer (rel) and its retransmits are on the
//     path. No other workload reaches that sublayer.
//
// The seed picks the stress seeds and shuffles the order of the paper
// runs; the paper fixes its own inputs, so the paper workloads' simulated
// results do not depend on the seed. Reference answers are computed and
// one untimed warm-up run executes before timing starts. The timed phase
// then cycles through the runs for -seconds, always finishing the first
// pass; a re-run must reproduce the first run's simulated result exactly.
// Each execution starts from a collected heap, so its cost does not depend
// on the run the seed ordered before it.
// A run fails on a wrong answer, an oracle violation, a panic or a
// deadlock; failures are counted, never fatal.
//
// End-to-end metrics (-trace 0), each the estimate for one pass over the
// workload built from per-run medians:
//
//   - wall_s: host seconds of a pass, set-up and checks included;
//   - sim_cycles_per_s: simulated cycles per host second inside the
//     simulate calls;
//   - setup_s: host seconds in machine.New and core.NewDefault (for stress,
//     stress.Run's entry up to Config.Hook);
//   - peak_rss_mb: the process's peak resident set (VmHWM) at exit.
//
// On a shared machine the host's speed drifts by tens of percent within
// minutes, mostly in the cost of handing a goroutine to another thread,
// which is the engine's baton path. So before every execution the
// benchmark times a 2000-round channel ping-pong between two goroutines
// (go.handoff_ns per round trip), and reports the host times above scaled
// to a 500 ns round trip: measured time times 500 ns over the median round
// trip. The raw.* metrics print the same times unscaled.
//
// Per-layer metrics (-trace 1) add a traced phase of the same length with
// a CPU profile, decoded in-process, whose samples are charged to the
// layers sim, mem, mesh, cmmu, rel, machine, core, apps, stress, checkers,
// instr, go-sched, go-gc, go-other and bench. Which end-to-end metric each
// should move:
//
//   - host.mem.* moves sim_cycles_per_s on paper-sm and stress, less on
//     paper-mp;
//   - host.checkers.share moves stress throughput; on paper-* it holds
//     only the nil check of the detached live checker's hook;
//   - host.instr.share (the stats maps) moves every throughput metric,
//     most on the stress workloads;
//   - host.go-sched.share and go.sched_latency_* move wall_s everywhere:
//     the baton handoffs between simulation goroutines cross OS threads;
//   - go.alloc_mb, host.go-gc.share, setup_s and peak_rss_mb move on
//     paper-*, where every run builds a 64-node machine; they are flat on
//     stress;
//   - host.core.* and sim.rts.* move on paper-*; they are 0 on stress;
//   - host.rel.share, rel.retransmit_ratio and sim.net.fault_* move only on
//     stress-lossy;
//   - host.mesh.* moves on the stress workloads;
//   - host.cmmu.* moves on paper-mp and stress-lossy, not on paper-sm.
//
// The traced phase also keeps setup, simulate and check spans per run in
// memory and writes them to -spans at exit. Every invocation prints the
// host shape (nproc, GOMAXPROCS), every metric by name with its unit, the
// fail fraction and sim_digest, a fingerprint of every simulated result.
// At the default seed, and at any seed for the paper workloads, a digest
// that differs from baseline.json exits non-zero: a change that only
// alters speed must leave every simulated statistic identical. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"alewife/internal/mem"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration // per timed phase
	trace    bool
	scale    scale
	spans    string // where the traced phase writes its spans
	baseline baseline

	// Failure injection for the failure-accounting tests.
	memFault *mem.Fault  // protocol mutation for every stress run
	tamper   func(*refs) // corrupts the paper runs' reference answers
}

const defaultSeed = 1

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure (the first pass always completes)")
	trace := fs.Int("trace", 0, "1: add a traced phase and report the per-layer metrics")
	spans := fs.String("spans", "spans.json", "file the traced phase writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: want -trace 0|1, -seconds >= 0 and no arguments")
		return 2
	}
	base, err := loadBaseline(baselineJSON)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *trace == 1, scale: scales["full"],
		budget: time.Duration(*seconds * float64(time.Second)),
		spans:  *spans, baseline: base,
	}
	if cfg.trace {
		cfg.budget /= 2 // the untraced and the traced phase share the run
	}
	return bench(cfg, stdout, stderr)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; value reads it from a report.
type metricDef struct {
	name, unit string
	value      func(r *report) float64
}

// report is everything one invocation measured.
type report struct {
	plain, traced *phaseResult
	counts        map[string]int64 // counters summed over the first pass
	cycles        uint64           // simulated cycles of the first pass
	rssMB         float64
	attrib        attribution
}

// passSeconds is the untraced phase's host time per pass in the selected
// phases of a run, scaled to the nominal probe speed (see hostScale) or,
// for the raw.* metrics, as measured.
func (r *report) passSeconds(sel func(timing) time.Duration, scaled bool) float64 {
	t := r.plain.perPass(sel)
	if scaled {
		t *= r.plain.hostScale()
	}
	return t
}

var endToEnd = []metricDef{
	{"wall_s", "s", func(r *report) float64 { return r.passSeconds(timing.total, true) }},
	{"sim_cycles_per_s", "cycles/s", func(r *report) float64 {
		return ratio(float64(r.cycles), r.passSeconds(simulateOf, true))
	}},
	{"setup_s", "s", func(r *report) float64 { return r.passSeconds(setupOf, true) }},
	{"peak_rss_mb", "MB", func(r *report) float64 { return r.rssMB }},
}

// simCounters are the simulator counters reported as sim.<name>, summed
// over the first pass: every name the stats package registers, read back
// through Snapshot.
var simCounters = []string{
	"cache.hits", "cache.misses", "cache.evictions", "cache.writebacks",
	"cache.upgrades", "cache.prefetches", "cache.prefetch_useful",
	"dir.limitless_overflows", "dir.limitless_trap_cycles",
	"proto.messages", "proto.invalidations",
	"net.packets", "net.flits", "net.packet_cycles",
	"cmmu.msgs_sent", "cmmu.msgs_received", "cmmu.msg_words", "cmmu.dma_words",
	"proc.stolen_cycles", "proc.busy_cycles",
	"rts.idle_cycles", "rts.threads_created", "rts.threads_stolen",
	"rts.steal_attempts", "rts.steal_failures", "rts.barriers",
	"rts.lock_acquisitions", "rts.lock_spins",
	"check.violations", "stress.ops",
	"net.fault_drops", "net.fault_dups", "net.fault_reorders",
	"rel.retransmits", "rel.timeouts", "rel.dup_drops", "rel.window_drops", "rel.acks",
}

// ratioDefs are the per-layer ratios, each printed with its base.
var ratioDefs = []struct {
	name, unit string
	num, base  func(c map[string]int64) int64
	baseName   string
}{
	{"mem.hit_ratio", "ratio",
		func(c map[string]int64) int64 { return c["cache.hits"] },
		func(c map[string]int64) int64 { return c["cache.hits"] + c["cache.misses"] }, "cache.hits+cache.misses"},
	{"mem.prefetch_useful_ratio", "ratio",
		func(c map[string]int64) int64 { return c["cache.prefetch_useful"] },
		func(c map[string]int64) int64 { return c["cache.prefetches"] }, "cache.prefetches"},
	{"core.steal_success_ratio", "ratio",
		func(c map[string]int64) int64 { return c["rts.steal_attempts"] - c["rts.steal_failures"] },
		func(c map[string]int64) int64 { return c["rts.steal_attempts"] }, "rts.steal_attempts"},
	{"mesh.cycles_per_packet", "cycles",
		func(c map[string]int64) int64 { return c["net.packet_cycles"] },
		func(c map[string]int64) int64 { return c["net.packets"] }, "net.packets"},
	{"rel.retransmit_ratio", "ratio",
		func(c map[string]int64) int64 { return c["rel.retransmits"] },
		func(c map[string]int64) int64 { return c["net.packets"] }, "net.packets"},
}

// unitCosts divide a layer's profiled CPU time by the count of the work it
// did in the traced phase.
var unitCosts = []struct{ name, layer, counter string }{
	{"host.mem.ns_per_miss", "mem", "cache.misses"},
	{"host.mesh.ns_per_packet", "mesh", "net.packets"},
	{"host.cmmu.ns_per_msg", "cmmu", "cmmu.msgs_sent"},
	{"host.core.ns_per_thread", "core", "rts.threads_created"},
	{"host.checkers.ns_per_op", "checkers", "stress.ops"},
	{"host.sim.ns_per_sim_cycle", "sim", ""}, // per simulated cycle
}

// perLayer lists the per-layer metrics in report order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, name := range simCounters {
		defs = append(defs, metricDef{"sim." + name, "count", func(r *report) float64 { return float64(r.counts[name]) }})
	}
	for _, d := range ratioDefs {
		defs = append(defs, metricDef{d.name, d.unit, func(r *report) float64 {
			return ratio(float64(d.num(r.counts)), float64(d.base(r.counts)))
		}})
	}
	defs = append(defs,
		metricDef{"stress.ops_per_s", "1/s", func(r *report) float64 {
			return ratio(float64(r.counts["stress.ops"]), r.passSeconds(simulateOf, true))
		}},
		metricDef{"raw.wall_s", "s", func(r *report) float64 { return r.passSeconds(timing.total, false) }},
		metricDef{"raw.sim_cycles_per_s", "cycles/s", func(r *report) float64 {
			return ratio(float64(r.cycles), r.passSeconds(simulateOf, false))
		}},
		metricDef{"raw.setup_s", "s", func(r *report) float64 { return r.passSeconds(setupOf, false) }},
		metricDef{"go.handoff_ns", "ns", func(r *report) float64 { return median(r.plain.probes) / probeRounds * 1e9 }},
		metricDef{"go.gc_cpu_frac", "ratio", func(r *report) float64 { return ratio(r.plain.rt.gcCPU, r.plain.rt.totalCPU) }},
		metricDef{"go.alloc_mb", "MB", func(r *report) float64 {
			return float64(r.plain.rt.allocBytes) / (1 << 20) / r.plain.passes()
		}},
		metricDef{"go.gc_cycles", "count", func(r *report) float64 { return float64(r.plain.rt.gcCycles) / r.plain.passes() }},
		metricDef{"go.sched_latency_p50_us", "us", func(r *report) float64 { return r.plain.rt.schedQuantile(0.50) }},
		metricDef{"go.sched_latency_p99_us", "us", func(r *report) float64 { return r.plain.rt.schedQuantile(0.99) }},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"host." + l + ".share", "share", func(r *report) float64 { return r.attrib.share(l) }})
	}
	for _, u := range unitCosts {
		defs = append(defs, metricDef{u.name, "ns", func(r *report) float64 {
			work := float64(r.traced.cycles)
			if u.counter != "" {
				work = float64(r.traced.counts[u.counter])
			}
			return ratio(float64(r.attrib.ns[u.layer]), work)
		}})
	}
	for _, s := range []struct {
		name string
		sel  func(timing) time.Duration
	}{{"span.setup_s", setupOf}, {"span.simulate_s", simulateOf}, {"span.check_s", checkOf}} {
		defs = append(defs, metricDef{s.name, "s", func(r *report) float64 { return r.traced.perPass(s.sel) }})
	}
	defs = append(defs, metricDef{"trace_overhead", "ratio", func(r *report) float64 {
		traced := r.traced.perPass(timing.total) * r.traced.hostScale()
		return ratio(traced, r.plain.perPass(timing.total)*r.plain.hostScale()) - 1
	}})
	return defs
}

// bench runs one workload and prints its report. It returns 0 when the
// report was printed, even with failed runs (they show as correct=false),
// 1 when the simulated results differ from the baseline's or the report
// cannot be made, and 2 for an unknown workload.
func bench(cfg config, stdout, stderr io.Writer) int {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale, cfg.memFault, cfg.tamper)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d scale=%s runs=%d\n",
		nproc, procs, runtime.Version(), w.name, cfg.seed, cfg.scale.name, len(w.runs))
	if h := cfg.baseline.Host; h.NProc != nproc || h.GOMAXPROCS != procs {
		fmt.Fprintf(stdout, "host shape differs from the baseline's (nproc=%d gomaxprocs=%d): host-time metrics are not comparable to it\n",
			h.NProc, h.GOMAXPROCS)
	}

	if out, _ := execute(w.warmup); out.err != nil {
		fmt.Fprintf(stderr, "e2ebench: warm-up run failed: %v\n", out.err)
	}
	plain := runPhase(w, cfg.budget, false)
	r := &report{plain: &plain}
	r.counts, r.cycles = plain.firstCounts()
	failures := plain.failures
	attempted := plain.execs
	defs := endToEnd

	if cfg.trace {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(stderr, "e2ebench: cpu profile:", err)
			return 1
		}
		traced := runPhase(w, cfg.budget, true)
		pprof.StopCPUProfile()
		r.traced = &traced
		failures = append(failures, traced.failures...)
		attempted += traced.execs
		if r.attrib, err = attribute(prof.Bytes()); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		for _, pkg := range r.attrib.unmapped {
			fmt.Fprintf(stderr, "e2ebench: package %s has no layer; its samples count as go-other\n", pkg)
		}
		if err := writeSpans(cfg.spans, traced.spans); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		defs = perLayer()
	}
	if r.rssMB, err = peakRSSMB(); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	res := result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: map[string]metric{}}
	for _, f := range failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: d.value(r), Unit: d.unit}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if r.traced == nil && !untracedMetric(d.name) {
			continue
		}
		fmt.Fprintf(stdout, "metric %-28s %s %s\n", d.name, strconv.FormatFloat(d.value(r), 'g', -1, 64), d.unit)
	}
	for _, d := range ratioDefs {
		fmt.Fprintf(stdout, "base   %-28s %d %s\n", d.name, d.base(r.counts), d.baseName)
	}
	fmt.Fprintf(stdout, "fail_frac %g (%d of %d runs failed)\n", ratio(float64(len(failures)), float64(attempted)),
		len(failures), attempted)

	ids := make([]string, len(w.runs))
	for i, rn := range w.runs {
		ids[i] = rn.id
	}
	digest := simDigest(ids, plain.first)
	code := 0
	switch want, ok := cfg.baseline.Digests[cfg.scale.name][w.name]; {
	case !ok || !(w.seedFree || cfg.seed == defaultSeed):
		fmt.Fprintf(stdout, "sim_digest %s (not compared: no baseline digest for this seed)\n", digest)
	case want != digest:
		fmt.Fprintf(stdout, "sim_digest %s MISMATCH: baseline.json has %s; the simulated results changed\n", digest, want)
		res.Correct = false
		code = 1
	default:
		fmt.Fprintf(stdout, "sim_digest %s (matches baseline)\n", digest)
	}

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// untracedMetric reports whether a per-layer metric comes from the
// untraced phase, so it is printed on every invocation.
func untracedMetric(name string) bool {
	return !strings.HasPrefix(name, "host.") && !strings.HasPrefix(name, "span.") && name != "trace_overhead"
}

func writeSpans(path string, spans []span) error {
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

//go:embed baseline.json
var baselineJSON []byte

// baseline is the part of baseline.json the program reads: the host shape
// the recorded numbers were measured on and the simulated-result digests
// at the default seed, by scale and workload.
type baseline struct {
	Host struct {
		NProc      int `json:"nproc"`
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"host"`
	Digests map[string]map[string]string `json:"digests"`
}

func loadBaseline(blob []byte) (baseline, error) {
	var b baseline
	if err := json.Unmarshal(blob, &b); err != nil {
		return b, fmt.Errorf("baseline.json: %w", err)
	}
	return b, nil
}
