// Package explore is the schedule-space explorer: a stateless model checker
// for the coherence protocol. Where the stress subsystem samples one
// schedule per seed, the explorer takes ownership of the simulator's
// nondeterminism points — which of several same-cycle events fires first
// (sim.Chooser), and whether a packet is delivered, dropped or duplicated
// (mesh.FaultChooser) — and enumerates schedules by bounded depth-first
// search, re-executing the deterministic simulation once per schedule with
// a forced choice prefix. Every explored schedule runs under the full
// stress oracle set: the live protocol invariants I1–I5, delivery
// discipline, per-location sequential consistency of the observed history,
// and the quiescence sweeps.
//
// Two prunings keep the walk tractable:
//
//   - Sleep-set partial-order reduction (Godefroid's algorithm): after
//     exploring transition t from a choice point, t enters the point's
//     sleep set; a sibling schedule need not re-explore u while u stays
//     asleep, and u wakes only when a dependent transition executes. Two
//     transitions are treated as commuting only when both are protocol
//     messages on different nodes touching different resources — see
//     independent, and DESIGN.md §13 for why this is sound only over the
//     contention-free network (the explorer forces Stress.Ideal).
//   - State-hash deduplication: at each choice point the run's protocol
//     state (directory, caches, transactions, message queues, reliability
//     sequence state) is digested; reaching a digest that has been seen
//     means the continuation was already explored from an equivalent
//     state, so the run stops recording backtrack points. This is a
//     64-bit-fingerprint heuristic, not a proof — NoDedup turns it off.
//
// A violation yields a replayable choice trace: the exact pick at every
// choice point. Replay re-executes it byte-identically, and ShrinkTrace
// minimizes it the way stress.Shrink minimizes programs.
package explore

import (
	"fmt"
	"strings"

	"alewife/internal/machine"
	"alewife/internal/mesh"
	"alewife/internal/sim"
	"alewife/internal/stress"
)

// Config parameterizes an exploration. The zero value of every bound picks
// a default sized for seconds-scale runs; Stress fields left zero default
// to a machine small enough to enumerate meaningfully (3 nodes, 12 ops, 2
// lines — schedule count explodes with program length, so explorer
// programs are much shorter than fuzzer programs).
type Config struct {
	// Stress is the underlying run: program shape, seed, injected
	// mutations. Topology is forced to the contention-free ideal network —
	// partial-order reduction is unsound over contended links (DESIGN.md
	// §13) — and Hook is owned by the explorer.
	Stress stress.Config

	MaxDepth int // choice points eligible for branching per run (default 64)
	MaxRuns  int // schedule budget for the DFS (default 400)
	MaxWidth int // alternatives explored per choice point (0 = all)

	// FaultPackets branches each of the first n packets three ways —
	// deliver / drop / duplicate — on top of schedule choice. 0 leaves the
	// wires perfect. (Reordering is not branched separately: a drop
	// followed by retransmission reorders, and a duplicate's second copy
	// arrives late, so the drop/dup branches already cover it.)
	FaultPackets int

	NoDedup bool // disable state-hash pruning
	NoPOR   bool // disable sleep-set pruning (exhaustive within bounds)

	// ShrinkBudget caps the re-executions spent minimizing a failing
	// trace; 0 picks a default, negative disables shrinking.
	ShrinkBudget int

	// Observe, when non-nil, is called with the machine at every schedule
	// choice point of every run. The directory corner-state tests use it
	// to watch for transient configurations across the explored schedules.
	Observe func(*machine.Machine)
}

// Step is one recorded decision: a schedule pick (index into the candidate
// events) or a fault pick (index into [deliver, drop, dup]). N records how
// many alternatives the point offered, making traces self-checking on
// replay.
type Step struct {
	Fault bool
	Pick  int
	N     int
}

func (s Step) String() string {
	k := "s"
	if s.Fault {
		k = "f"
	}
	return fmt.Sprintf("%s %d/%d", k, s.Pick, s.N)
}

// Outcome is what an exploration found.
type Outcome struct {
	Runs         int    // schedules executed
	ChoicePoints uint64 // decisions across all runs
	SleepSkips   uint64 // candidates skipped asleep
	SleepPrunes  uint64 // runs cut short with every candidate asleep
	DedupPrunes  uint64 // runs cut short on a seen state digest
	Exhausted    bool   // frontier emptied before MaxRuns: bounded space covered
	Found        bool
	Trace        []Step        // failing choice trace (minimized unless shrinking is off)
	Result       stress.Result // the failing run's result
	Shrunk       bool
}

// Summary renders the outcome's one-paragraph statistics.
func (o *Outcome) Summary() string {
	var b strings.Builder
	verdict := "no violation"
	if o.Found {
		verdict = "VIOLATION"
	}
	cover := "budget exhausted"
	if o.Exhausted {
		cover = "schedule space covered (within bounds)"
	}
	fmt.Fprintf(&b, "explore: %s after %d runs, %d choice points (%s)\n",
		verdict, o.Runs, o.ChoicePoints, cover)
	fmt.Fprintf(&b, "pruning: %d sleep skips, %d sleep-closed runs, %d state-digest hits\n",
		o.SleepSkips, o.SleepPrunes, o.DedupPrunes)
	if o.Found {
		fmt.Fprintf(&b, "trace: %d steps", len(o.Trace))
		if o.Shrunk {
			b.WriteString(" (minimized)")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 64
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 400
	}
	if cfg.ShrinkBudget == 0 {
		cfg.ShrinkBudget = 150
	}
	s := &cfg.Stress
	if s.Nodes == 0 {
		s.Nodes = 3
	}
	if s.Ops == 0 {
		s.Ops = 12
	}
	if s.Lines == 0 {
		s.Lines = 2
	}
	if s.TraceCap == 0 {
		s.TraceCap = 64
	}
	if s.MaxEvents == 0 {
		s.MaxEvents = 1_000_000
	}
	s.Ideal = true // POR soundness requires the contention-free network
	return cfg
}

// Explorer carries the DFS state across re-executions.
type Explorer struct {
	cfg  Config
	prog [][]stress.Op
	seen map[uint64]struct{}
	out  Outcome
}

// frame is one frontier entry: the forced picks reproducing the path to a
// branch point plus the new branch, and the sleep set the branch's subtree
// starts with (already filtered against the branch's own transition).
type frame struct {
	forced []Step
	sleep  []sim.Choice
}

// Explore runs the bounded DFS and returns what it found. The error path
// covers malformed configs and internal divergence (a forced prefix that
// fails to reproduce — determinism is broken); protocol violations are not
// errors, they are the Found outcome.
func Explore(cfg Config) (Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Stress.Validate(); err != nil {
		return Outcome{}, err
	}
	ex := &Explorer{cfg: cfg, prog: stress.Generate(cfg.Stress), seen: make(map[uint64]struct{})}
	stack := []frame{{}}
	for len(stack) > 0 && ex.out.Runs < cfg.MaxRuns {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r, res := ex.execute(fr.forced, fr.sleep)
		ex.out.Runs++
		if r.divergence != nil {
			return ex.out, r.divergence
		}
		if res.Failed() {
			ex.out.Found = true
			ex.out.Trace = trimDefaults(r.steps)
			ex.out.Result = res
			if cfg.ShrinkBudget > 0 {
				if tr, sres, err := ShrinkTrace(cfg, ex.out.Trace, cfg.ShrinkBudget); err == nil {
					ex.out.Trace, ex.out.Result, ex.out.Shrunk = tr, sres, true
				}
			}
			return ex.out, nil
		}
		stack = ex.expand(stack, r)
	}
	ex.out.Exhausted = len(stack) == 0
	return ex.out, nil
}

// expand pushes the unexplored siblings of every backtrack point the run
// recorded. Points are pushed shallow-first so the deepest pops first —
// depth-first order keeps the forced prefixes maximally shared.
func (ex *Explorer) expand(stack []frame, r *runner) []frame {
	for _, pt := range r.pts {
		prefix := r.steps[:pt.depth]
		if pt.fault {
			for j := pt.n - 1; j >= 0; j-- {
				if j == pt.pick {
					continue
				}
				forced := make([]Step, pt.depth+1)
				copy(forced, prefix)
				forced[pt.depth] = Step{Fault: true, Pick: j, N: pt.n}
				stack = append(stack, frame{forced: forced})
			}
			continue
		}
		done := []sim.Choice{pt.cands[pt.pick]}
		width := 0
		for j := pt.pick + 1; j < len(pt.cands); j++ {
			if ex.cfg.MaxWidth > 0 && width >= ex.cfg.MaxWidth-1 {
				break
			}
			c := pt.cands[j]
			if !ex.cfg.NoPOR && inSleep(pt.sleep, c) {
				continue
			}
			var sl []sim.Choice
			if !ex.cfg.NoPOR {
				for _, u := range pt.sleep {
					if independent(u, c) {
						sl = append(sl, u)
					}
				}
				for _, u := range done {
					if independent(u, c) {
						sl = append(sl, u)
					}
				}
				done = append(done, c)
			}
			forced := make([]Step, pt.depth+1)
			copy(forced, prefix)
			forced[pt.depth] = Step{Pick: j, N: pt.n}
			stack = append(stack, frame{forced: forced, sleep: sl})
			width++
		}
	}
	return stack
}

// Replay re-executes one choice trace and returns its result plus the
// canonical executed step list (the trace padded with the default picks
// the run actually took beyond it). Replay is deterministic: the same
// trace over the same config reproduces the identical run, byte for byte.
// A trace that does not align with the run's actual choice points — wrong
// kind or an out-of-range pick — is an error.
func Replay(cfg Config, steps []Step) (stress.Result, []Step, error) {
	cfg = cfg.withDefaults()
	cfg.NoDedup = true // replay needs no pruning state
	if err := cfg.Stress.Validate(); err != nil {
		return stress.Result{}, nil, err
	}
	ex := &Explorer{cfg: cfg, prog: stress.Generate(cfg.Stress)}
	r, res := ex.execute(steps, nil)
	if r.divergence != nil {
		return res, r.steps, r.divergence
	}
	return res, r.steps, nil
}

// execute performs one simulation with the given forced prefix, returning
// the runner (trace, backtrack points, divergence) and the oracle result.
func (ex *Explorer) execute(forced []Step, branchSleep []sim.Choice) (*runner, stress.Result) {
	r := &runner{ex: ex, forced: forced, branchSleep: branchSleep}
	scfg := ex.cfg.Stress
	scfg.Hook = func(m *machine.Machine) {
		r.m = m
		m.Eng.SetChooser(r)
	}
	if ex.cfg.FaultPackets > 0 {
		var ft mesh.NetFault
		if scfg.NetFault != nil {
			ft = *scfg.NetFault
		}
		ft.Chooser = r
		scfg.NetFault = &ft
	}
	res, err := stress.Execute(scfg, ex.prog)
	if err != nil {
		// Config was validated before the DFS started; reaching here means
		// the explorer built an inconsistent derived config.
		panic(fmt.Sprintf("explore: derived config rejected mid-search: %v", err))
	}
	return r, res
}

// faultKinds is the branch order at a fault point: pick 0 (the replay
// default) must be faultless delivery.
var faultKinds = [...]int{mesh.FaultNone, mesh.FaultDrop, mesh.FaultDup}

// runner drives one simulation: it is the sim.Chooser and
// mesh.FaultChooser for that run, replaying the forced prefix and taking
// default (lowest non-sleeping) picks beyond it while recording backtrack
// points for the DFS.
type runner struct {
	ex          *Explorer
	m           *machine.Machine
	forced      []Step
	branchSleep []sim.Choice // sleep set adopted when the prefix ends
	sleep       []sim.Choice
	depth       int
	steps       []Step  // every decision this run, aligned with depth
	pts         []point // backtrack points recorded beyond the prefix
	pruned      bool    // stop recording points: subtree known redundant
	divergence  error
}

// point is a recorded backtrack point: enough to reconstruct the sibling
// frames without re-running the prefix.
type point struct {
	depth int
	pick  int
	n     int
	fault bool
	cands []sim.Choice // schedule points only
	sleep []sim.Choice // sleep set in force at the point
}

// Choose implements sim.Chooser.
func (r *runner) Choose(now sim.Time, cands []sim.Choice) int {
	return r.choose(false, cands, len(cands))
}

// ChooseFault implements mesh.FaultChooser: the first FaultPackets packets
// are choice points, the rest are delivered faultlessly.
func (r *runner) ChooseFault(src, dst int, n uint64) (int, uint64) {
	if n > uint64(r.ex.cfg.FaultPackets) {
		return mesh.FaultNone, 0
	}
	return faultKinds[r.choose(true, nil, len(faultKinds))], 0
}

// choose is the single decision path for both kinds of nondeterminism.
func (r *runner) choose(fault bool, cands []sim.Choice, n int) int {
	d := r.depth
	r.depth++
	r.ex.out.ChoicePoints++
	if !fault && r.ex.cfg.Observe != nil {
		r.ex.cfg.Observe(r.m)
	}

	if d < len(r.forced) {
		st := r.forced[d]
		if st.Fault != fault || st.Pick < 0 || st.Pick >= n {
			if r.divergence == nil {
				r.divergence = fmt.Errorf(
					"explore: trace diverged at choice point %d: trace has %s, run offers a %s point with %d alternatives",
					d, st, kindName(fault), n)
			}
			r.steps = append(r.steps, Step{Fault: fault, N: n})
			return 0
		}
		if d == len(r.forced)-1 && !fault {
			// The prefix ends here: the subtree starts with the sleep set
			// the DFS computed when it pushed this branch.
			r.sleep = append(r.sleep[:0], r.branchSleep...)
		}
		if d == len(r.forced)-1 && fault {
			r.sleep = r.sleep[:0]
		}
		r.steps = append(r.steps, Step{Fault: fault, Pick: st.Pick, N: n})
		return st.Pick
	}

	// Free territory: digest-dedup, then the lowest non-sleeping pick.
	if !r.pruned && !r.ex.cfg.NoDedup && !fault {
		dg := r.stateDigest()
		if _, seen := r.ex.seen[dg]; seen {
			r.pruned = true
			r.ex.out.DedupPrunes++
		} else {
			r.ex.seen[dg] = struct{}{}
		}
	}
	pick := 0
	if !fault && !r.ex.cfg.NoPOR && !r.pruned {
		for pick < n && inSleep(r.sleep, cands[pick]) {
			pick++
			r.ex.out.SleepSkips++
		}
		if pick == n {
			// Every enabled transition is asleep: any continuation is a
			// reordering of an explored one. Finish the run on defaults —
			// halting mid-run would make the oracles report a spurious
			// livelock — but record nothing more.
			pick = 0
			r.pruned = true
			r.ex.out.SleepPrunes++
		}
	}
	if !r.pruned && n > 1 && d < r.ex.cfg.MaxDepth {
		pt := point{depth: d, pick: pick, n: n, fault: fault}
		if !fault {
			pt.cands = append([]sim.Choice(nil), cands...)
			pt.sleep = append([]sim.Choice(nil), r.sleep...)
		}
		r.pts = append(r.pts, pt)
	}
	r.steps = append(r.steps, Step{Fault: fault, Pick: pick, N: n})
	if fault {
		// A packet's fate changes what every affected handler does next;
		// treat it as dependent with everything.
		r.sleep = r.sleep[:0]
	} else {
		r.sleep = filterIndependent(r.sleep, cands[pick])
	}
	return pick
}

// stateDigest fingerprints the machine's protocol-visible state (see the
// Digest methods in mem and cmmu for scope).
func (r *runner) stateDigest() uint64 {
	m := r.m
	h := m.Fab.Digest()
	for _, n := range m.Nodes {
		h = sim.SplitMix64(h ^ n.CMMU.Digest())
	}
	if m.Rel != nil {
		h = sim.SplitMix64(h ^ m.Rel.Digest())
	}
	return sim.SplitMix64(h ^ uint64(m.Eng.Pending())<<32 ^ uint64(m.Eng.Live()))
}

// independent reports whether two candidate transitions commute: executing
// them in either order reaches the same state and enables the same
// continuations. The approximation is deliberately conservative — only
// keyed protocol messages (ChoiceSink with a known node) on different
// nodes AND different resources qualify; context wakes and any opaque sink
// event (node -1: declared so, or from a sink that does not implement
// sim.SinkInfo) are dependent with everything.
func independent(a, b sim.Choice) bool {
	return a.Kind == sim.ChoiceSink && b.Kind == sim.ChoiceSink &&
		a.Node >= 0 && b.Node >= 0 && a.Node != b.Node && a.Key != b.Key
}

// inSleep reports whether c (identified by its stable Seq) is asleep.
func inSleep(set []sim.Choice, c sim.Choice) bool {
	for _, u := range set {
		if u.Seq == c.Seq {
			return true
		}
	}
	return false
}

// filterIndependent wakes every sleeping transition dependent with the one
// just executed, in place.
func filterIndependent(set []sim.Choice, exec sim.Choice) []sim.Choice {
	kept := set[:0]
	for _, u := range set {
		if independent(u, exec) {
			kept = append(kept, u)
		}
	}
	return kept
}

// trimDefaults drops trailing default steps (pick 0): replay regenerates
// them, so they carry no information.
func trimDefaults(steps []Step) []Step {
	end := len(steps)
	for end > 0 && steps[end-1].Pick == 0 {
		end--
	}
	return steps[:end]
}

func kindName(fault bool) string {
	if fault {
		return "fault"
	}
	return "schedule"
}
