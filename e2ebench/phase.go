package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// timing is the host time one execution spent in each phase.
type timing struct{ setup, simulate, check time.Duration }

func (t timing) total() time.Duration { return t.setup + t.simulate + t.check }

func setupOf(t timing) time.Duration    { return t.setup }
func simulateOf(t timing) time.Duration { return t.simulate }
func checkOf(t timing) time.Duration    { return t.check }

// span is one traced interval: a whole execution ("run") or one of its
// phases, whose parent is the run span. Times are relative to the start of
// the traced phase.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Run     int    `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	first    []outcome  // the first pass, by run index
	timings  [][]timing // every execution, by run index
	execs    int
	failures []string         // "<run id>: <error>" per failed execution
	counts   map[string]int64 // counters summed over every execution
	cycles   uint64           // simulated cycles summed over every execution
	spans    []span           // recorded only when tracing
	probes   []float64        // host-speed probe times, seconds
	rt       runtimeDelta
}

// runPhase executes w's runs in order, cycling, until budget has elapsed,
// always completing the first pass so that every run is measured at least
// once and the first pass is the same on every host. A later execution of
// a run must reproduce the first one's simulated result exactly.
//
// Every execution starts from a collected heap, outside its timing, so it
// does not pay for the garbage of whichever run the seed ordered before
// it: its time and the peak resident set depend on the run alone.
func runPhase(w *workload, budget time.Duration, traced bool) phaseResult {
	res := phaseResult{
		first:   make([]outcome, len(w.runs)),
		timings: make([][]timing, len(w.runs)),
		counts:  map[string]int64{},
	}
	before := readRuntime()
	start := time.Now()
	for n := 0; n < len(w.runs) || time.Since(start) < budget; n++ {
		i := n % len(w.runs)
		runtime.GC()
		res.probes = append(res.probes, probe().Seconds())
		out, mk := execute(w.runs[i])
		if n < len(w.runs) {
			res.first[i] = out
		} else if out.err == nil && !sameResult(out, res.first[i]) {
			out.err = fmt.Errorf("re-run differs from the first run (%d cycles, answer %d; first %d, %d)",
				out.cycles, out.answer, res.first[i].cycles, res.first[i].answer)
		}
		res.execs++
		if out.err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", w.runs[i].id, out.err))
		}
		res.timings[i] = append(res.timings[i], timing{
			setup:    mk.simulate.Sub(mk.start),
			simulate: mk.check.Sub(mk.simulate),
			check:    mk.end.Sub(mk.check),
		})
		res.cycles += out.cycles
		for k, v := range out.counts {
			res.counts[k] += v
		}
		if traced {
			res.spans = appendSpans(res.spans, n, w.runs[i].id, mk, start)
		}
	}
	res.rt = readRuntime().since(before)
	return res
}

// probeRounds sizes the host-speed probe, and probeNominal is the round
// trip the reported host times are scaled to: about the median on the
// 2-vCPU host baseline.json describes.
const (
	probeRounds  = 2000
	probeNominal = 500 * time.Nanosecond
)

// probe times a channel ping-pong between two goroutines: the handoff the
// engine's baton makes between simulation goroutines, with none of the
// simulator's code. Its cost moves with the host's load, as the
// simulator's does.
func probe() time.Duration {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	start := time.Now()
	for i := 0; i < probeRounds; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(start)
	close(ping)
	<-pong // the helper has exited
	return d
}

// execute runs one execution, recovering a panic (a deadlock in the
// simulated program surfaces as one) into a failed outcome.
func execute(r job) (out outcome, mk marks) {
	mk.start = time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				out = outcome{err: fmt.Errorf("panic: %v", firstLine(fmt.Sprint(p)))}
			}
		}()
		out = r.exec(&mk)
	}()
	mk.end = time.Now()
	// An execution that stopped early charges the rest to the phase it
	// was in.
	if mk.simulate.IsZero() {
		mk.simulate = mk.end
	}
	if mk.check.IsZero() {
		mk.check = mk.end
	}
	return out, mk
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func sameResult(a, b outcome) bool {
	if a.cycles != b.cycles || a.answer != b.answer || len(a.counts) != len(b.counts) {
		return false
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			return false
		}
	}
	return true
}

func appendSpans(spans []span, n int, id string, mk marks, origin time.Time) []span {
	rel := func(t time.Time) int64 { return t.Sub(origin).Nanoseconds() }
	root := len(spans) + 1
	spans = append(spans, span{ID: root, Run: n, Name: "run " + id, StartNS: rel(mk.start), EndNS: rel(mk.end)})
	for _, s := range []struct {
		name       string
		start, end time.Time
	}{{"setup", mk.start, mk.simulate}, {"simulate", mk.simulate, mk.check}, {"check", mk.check, mk.end}} {
		spans = append(spans, span{ID: len(spans) + 1, Parent: root, Run: n, Name: s.name,
			StartNS: rel(s.start), EndNS: rel(s.end)})
	}
	return spans
}

// perPass estimates the host time of one pass over the workload: the sum,
// over its runs, of the median time each run spent in the selected phases.
func (p *phaseResult) perPass(sel func(timing) time.Duration) float64 {
	var total float64
	for _, ts := range p.timings {
		vals := make([]float64, len(ts))
		for j, t := range ts {
			vals[j] = sel(t).Seconds()
		}
		total += median(vals)
	}
	return total
}

// hostScale converts this phase's host seconds to seconds at the nominal
// probe speed. The host's speed drifts by tens of percent within minutes
// on a shared machine, and the probe, taken before every execution, drifts
// with it; host times divided by the probe's median keep the simulator's
// own cost.
func (p *phaseResult) hostScale() float64 {
	return ratio(probeNominal.Seconds()*probeRounds, median(p.probes))
}

// passes is how many passes over the workload the phase executed.
func (p *phaseResult) passes() float64 { return float64(p.execs) / float64(len(p.timings)) }

// firstCounts sums the counters of the first pass. Unlike the phase
// totals they do not depend on how many passes the budget allowed.
func (p *phaseResult) firstCounts() (map[string]int64, uint64) {
	counts := map[string]int64{}
	var cycles uint64
	for _, o := range p.first {
		cycles += o.cycles
		for k, v := range o.counts {
			counts[k] += v
		}
	}
	return counts, cycles
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simDigest fingerprints the simulated results of runs: FNV-64a over each
// run's id, simulated cycles, answer and sorted counter snapshot, in run-id
// order. A change that only alters host speed must leave it unchanged.
func simDigest(ids []string, outs []outcome) string {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	h := fnv.New64a()
	for _, i := range order {
		o := outs[i]
		fmt.Fprintf(h, "%s %d %d\n", ids[i], o.cycles, o.answer)
		names := make([]string, 0, len(o.counts))
		for k := range o.counts {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(h, "%s=%d\n", k, o.counts[k])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Go runtime figures, read through runtime/metrics around a phase.
var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

type runtimeSample []metrics.Sample

func readRuntime() runtimeSample {
	s := make(runtimeSample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// runtimeDelta is the change in the runtime figures over one phase.
type runtimeDelta struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
	schedBuckets    []float64 // histogram bucket boundaries, seconds
	schedCounts     []uint64
}

func (s runtimeSample) since(prev runtimeSample) runtimeDelta {
	d := runtimeDelta{
		gcCPU:      s[0].Value.Float64() - prev[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64() - prev[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64() - prev[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64() - prev[3].Value.Uint64(),
	}
	now, then := s[4].Value.Float64Histogram(), prev[4].Value.Float64Histogram()
	d.schedBuckets = now.Buckets
	d.schedCounts = make([]uint64, len(now.Counts))
	for i := range now.Counts {
		d.schedCounts[i] = now.Counts[i] - then.Counts[i]
	}
	return d
}

// schedQuantile returns the q-quantile of the scheduling latencies in
// microseconds, taking each bucket's finite upper bound.
func (d runtimeDelta) schedQuantile(q float64) float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range d.schedCounts {
		seen += c
		if seen >= rank {
			v := d.schedBuckets[i+1]
			if math.IsInf(v, 1) {
				v = d.schedBuckets[i]
			}
			return v * 1e6
		}
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
