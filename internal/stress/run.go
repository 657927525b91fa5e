package stress

import (
	"fmt"
	"strings"

	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Message types owned by the stress harness.
const (
	msgMailbox = 100 + iota // Ops[0] = value for the sender's mailbox slot
	msgBulk                 // gathers a hot line by DMA; lands in scratch
)

// Result is the outcome of one stress execution. A run is a pure function of
// its Config: re-running the same seed reproduces the same violations at the
// same cycles.
type Result struct {
	Seed       uint64
	Nodes      int
	TotalOps   int64 // ops actually executed (stress.ops counter)
	Cycles     sim.Time
	Violations []string
	FirstAt    sim.Time // cycle of the first violation (0 when clean)
	TraceTail  string   // last trace events before the first violation

	// Lossy and NetSchedSeed record the effective wire-fault regime so the
	// repro line replays the identical fault schedule.
	Lossy        bool
	NetSchedSeed uint64

	// Populated only when Config.Capture is set.
	History     []HistOp      // every tracked access, in execution order
	TraceDigest uint64        // trace ring fingerprint (trace.Buffer.Digest)
	TraceEvents []trace.Event // retained trace ring, oldest first
	StatsText   string        // global counters, one per line, sorted
}

// Failed reports whether any oracle fired.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Report renders a failure for humans: the repro line, the violations, and
// the trace window leading up to the first one.
func (r *Result) Report() string {
	var b strings.Builder
	if !r.Failed() {
		fmt.Fprintf(&b, "seed %#x: ok (%d nodes, %d ops, %d cycles)\n",
			r.Seed, r.Nodes, r.TotalOps, r.Cycles)
		return b.String()
	}
	fmt.Fprintf(&b, "seed %#x: FAILED at cycle %d (%d nodes, %d ops executed)\n",
		r.Seed, r.FirstAt, r.Nodes, r.TotalOps)
	if r.Lossy {
		fmt.Fprintf(&b, "reproduce: alewife-stress -loss -netseed %#x -seed %#x\n", r.NetSchedSeed, r.Seed)
	} else {
		fmt.Fprintf(&b, "reproduce: alewife-stress -seed %#x\n", r.Seed)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	if r.TraceTail != "" {
		fmt.Fprintf(&b, "last trace events before the violation:\n%s", r.TraceTail)
	}
	return b.String()
}

// Run generates and executes one seeded stress program. A malformed config
// (see Config.Validate) is an error, not a run.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.fill()
	return execute(cfg, Generate(cfg)), nil
}

// layout is the run's address plan.
type layout struct {
	hot     []mem.Addr // contended lines, round-robin homes
	ctrs    []mem.Addr // contended FetchAdd counters
	mail    []mem.Addr // per-node mailbox: one line per sender
	scratch []mem.Addr // per-node DMA landing zone, one line
}

func (l *layout) word(i int) mem.Addr {
	return l.hot[i/mem.LineWords] + mem.Addr(i%mem.LineWords)
}

func (l *layout) slot(dst, src int) mem.Addr {
	return l.mail[dst] + mem.Addr(src*mem.LineWords)
}

// Execute runs a specific program (possibly shrunk) under the full oracle
// set and returns what happened. Like Run, it rejects malformed configs.
func Execute(cfg Config, prog [][]Op) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.fill()
	return execute(cfg, prog), nil
}

// execute is the validated, default-filled core of Run/Execute.
func execute(cfg Config, prog [][]Op) Result {
	res := Result{Seed: cfg.Seed, Nodes: cfg.Nodes}

	mcfg := machine.DefaultConfig(cfg.Nodes)
	if cfg.Ideal {
		mcfg.Topology = machine.TopoIdeal
	}
	mcfg.WordsPerNode = 1 << 12
	mcfg.CacheSets = 4 // direct-mapped 4-line cache: constant evictions
	mcfg.CacheWays = 1
	mcfg.HWPointers = 2 // LimitLESS overflow with three sharers
	if cfg.NetFault != nil {
		ft := *cfg.NetFault // the config's schedule must survive re-Execute
		if ft.Seed == 0 {
			ft.Seed = sim.SplitMix64(cfg.Seed ^ 0xfa017b17)
		}
		mcfg.Net.Fault = &ft
		res.Lossy, res.NetSchedSeed = true, ft.Seed
	}
	// Mutations need the sublayer present even over perfect wires.
	mcfg.Reliable = cfg.RelFault != nil
	m := machine.New(mcfg)
	m.EnableTrace(cfg.TraceCap)
	m.Fab.Fault = cfg.MemFault
	for _, n := range m.Nodes {
		n.CMMU.Fault = cfg.CMMUFault
	}

	// Oracles. The first live violation halts the engine so the failure
	// cycle is the earliest observable one and replay is exact.
	halted := false
	fail := func(at sim.Time, msg string) {
		if len(res.Violations) == 0 {
			res.FirstAt = at
			res.TraceTail = m.St.Trace.Format(50)
		}
		res.Violations = append(res.Violations, msg)
	}
	lc := m.Fab.AttachChecker()
	lc.OnViolation = func(v mem.Violation) {
		fail(v.At, v.String())
		halted = true
		m.Eng.Halt()
	}
	ck := cmmu.NewChecker()
	ck.OnViolation = func(v cmmu.Violation) {
		fail(v.At, v.String())
		halted = true
		m.Eng.Halt()
	}
	for _, n := range m.Nodes {
		n.CMMU.Check = ck
	}
	if m.Rel != nil {
		m.Rel.Fault = cfg.RelFault
		m.Rel.OnViolation = func(v cmmu.Violation) {
			fail(v.At, v.String())
			halted = true
			m.Eng.Halt()
		}
	}

	// Address plan: hot lines round-robin across homes, counters likewise,
	// one mailbox and one scratch line per node.
	lay := &layout{}
	for i := 0; i < cfg.Lines; i++ {
		lay.hot = append(lay.hot, m.Store.AllocOn(i%cfg.Nodes, mem.LineWords))
	}
	for i := 0; i < cfg.counters(); i++ {
		lay.ctrs = append(lay.ctrs, m.Store.AllocOn((i+1)%cfg.Nodes, mem.LineWords))
	}
	for n := 0; n < cfg.Nodes; n++ {
		lay.mail = append(lay.mail, m.Store.AllocOn(n, uint64(cfg.Nodes*mem.LineWords)))
		lay.scratch = append(lay.scratch, m.Store.AllocOn(n, mem.LineWords))
	}

	// The observed history, appended in execution order by procs and
	// message handlers alike (the simulator is single-threaded). Sized for
	// the common whole-program run up front so recording doesn't regrow it.
	hist := make([]HistOp, 0, cfg.Nodes*cfg.Ops)
	record := func(node int, loc mem.Addr, write bool, val uint64, at sim.Time) {
		hist = append(hist, HistOp{Node: node, Loc: loc, Write: write, Val: val, At: at})
	}

	adds := make([]uint64, len(lay.ctrs)) // expected counter totals
	for n := 0; n < cfg.Nodes; n++ {
		node := n
		var sbuf [1]uint64 // storeback scratch; handlers run atomically
		m.Nodes[node].CMMU.Register(msgMailbox, func(e *cmmu.Env) {
			e.ReadOps(1)
			slot := lay.slot(node, e.Src)
			sbuf[0] = e.Ops[0]
			e.Storeback(slot, sbuf[:])
			record(node, slot, true, e.Ops[0], e.Now())
		})
		m.Nodes[node].CMMU.Register(msgBulk, func(e *cmmu.Env) {
			e.ReadOps(len(e.Data))
			e.Storeback(lay.scratch[node], e.Data[:mem.LineWords])
		})
	}

	// One program context per node.
	var nextVal uint64
	uniq := func(node int) uint64 {
		nextVal++
		return uint64(node+1)<<48 | nextVal
	}
	for n := 0; n < cfg.Nodes; n++ {
		node, ops := n, prog[n]
		m.Spawn(node, 0, "stress", func(p *machine.Proc) {
			// Descriptor scratch: the CMMU copies operands and gathers
			// regions at injection, so these are safely reused per send.
			var opsBuf [1]uint64
			var regBuf [1]cmmu.Region
			for _, op := range ops {
				m.St.Inc(node, stats.StressOps)
				switch op.Kind {
				case OpRead:
					a := lay.word(op.Loc)
					v := p.Read(a)
					record(node, a, false, v, p.Ctx.Now())
				case OpWrite:
					a := lay.word(op.Loc)
					v := uniq(node)
					p.Write(a, v)
					record(node, a, true, v, p.Ctx.Now())
				case OpFetchAdd:
					p.FetchAdd(lay.ctrs[op.Loc], 1)
					adds[op.Loc]++
				case OpPrefetch:
					p.Prefetch(lay.word(op.Loc), op.Arg&1 == 1)
				case OpSend:
					opsBuf[0] = uniq(node)
					p.SendMessage(cmmu.Descriptor{
						Type: msgMailbox, Dst: op.Dst, Ops: opsBuf[:]})
				case OpDMA:
					opsBuf[0] = uniq(node)
					regBuf[0] = cmmu.Region{Base: lay.hot[op.Loc], Words: mem.LineWords}
					p.SendMessage(cmmu.Descriptor{
						Type: msgBulk, Dst: op.Dst, Ops: opsBuf[:],
						Regions: regBuf[:]})
				case OpReadMail:
					a := lay.slot(node, op.Dst)
					v := p.Read(a)
					record(node, a, false, v, p.Ctx.Now())
				case OpMask:
					p.MaskInterrupts()
					p.Elapse(op.Arg)
					p.UnmaskInterrupts()
				case OpCompute:
					p.Elapse(op.Arg)
				}
				if halted {
					break
				}
			}
			p.Flush()
		})
	}

	if cfg.Hook != nil {
		cfg.Hook(m)
	}

	// Drive the run; protocol panics (a broken mutation tripping a sanity
	// panic before an invariant fires) are violations too.
	drained := true
	func() {
		defer func() {
			if r := recover(); r != nil {
				fail(m.Eng.Now(), fmt.Sprintf("panic at cycle %d: %v", m.Eng.Now(), r))
			}
		}()
		drained = m.Eng.RunLimit(cfg.MaxEvents)
	}()

	res.Cycles = m.Eng.Now()
	res.TotalOps = m.St.Global.Get(stats.StressOps)
	if cfg.Capture {
		res.History = hist
		res.TraceDigest = m.St.Trace.Digest()
		res.TraceEvents = m.St.Trace.Events()
		res.StatsText = m.St.String()
	}

	if !halted && len(res.Violations) == 0 {
		if !drained {
			fail(m.Eng.Now(), fmt.Sprintf("event budget %d exhausted: livelock", cfg.MaxEvents))
		} else if m.Eng.Live() > 0 {
			fail(m.Eng.Now(), fmt.Sprintf("deadlock: %d contexts stuck: %v", m.Eng.Live(), m.Eng.Stuck()))
		} else {
			// Clean completion: quiescence sweep, history, counters.
			if err := lc.Quiesce(); err != nil {
				fail(m.Eng.Now(), fmt.Sprintf("quiescence: %v", err))
			}
			if m.Rel != nil {
				if err := m.Rel.Quiesce(); err != nil {
					fail(m.Eng.Now(), fmt.Sprintf("quiescence: %v", err))
				}
			}
			for _, v := range CheckHistory(hist) {
				fail(m.Eng.Now(), v)
			}
			for i, want := range adds {
				if got := m.Store.Read(lay.ctrs[i]); got != want {
					fail(m.Eng.Now(), fmt.Sprintf("counter %d: %d lost updates (got %d, want %d)",
						i, want-got, got, want))
				}
			}
		}
	}
	return res
}
