// Package stress is the protocol stress subsystem: a deterministic coherence
// fuzzer for the memory system and network interface. A seeded generator
// drives N simulated processors through adversarial mixes of loads, stores,
// atomics, prefetches, DMA copies and active messages over a small set of
// contended lines (hot homes, false sharing, eviction pressure on a tiny
// cache, LimitLESS overflow), while three independent oracles watch the run:
//
//   - the live invariant checker (mem.LiveChecker, cmmu.Checker) validates
//     every protocol state transition as it happens;
//   - the history checker verifies the observed load/store history is
//     sequentially consistent per location;
//   - quiescence checks (mem.Fabric.CheckConsistency plus lost-writeback
//     accounting) sweep the final state.
//
// Everything is deterministic: the same seed produces the same op streams,
// the same interleaving, and — when something breaks — the same violation at
// the same cycle, so every failure is a one-line repro
// (`alewife-stress -seed 0x…`). Shrink minimizes a failing program.
package stress

import (
	"fmt"
	"math/rand"

	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/sim"
)

// OpKind classifies one generated operation.
type OpKind uint8

// Operation kinds.
const (
	OpRead     OpKind = iota // load a hot word
	OpWrite                  // store a unique value to a hot word
	OpFetchAdd               // atomic add on a contended counter
	OpPrefetch               // non-binding prefetch of a hot line (Arg&1: exclusive)
	OpSend                   // active message; handler DMA-storebacks to the mailbox
	OpDMA                    // bulk message gathering a hot line by DMA
	OpReadMail               // load this node's mailbox slot for sender Dst
	OpMask                   // mask interrupts for Arg cycles
	OpCompute                // local compute for Arg cycles (desynchronizes nodes)
	opKinds
)

func (k OpKind) String() string {
	names := [...]string{"read", "write", "fetchadd", "prefetch", "send",
		"dma", "readmail", "mask", "compute"}
	if int(k) < len(names) {
		return names[k]
	}
	return "op?"
}

// Op is one generated operation in a node's program.
type Op struct {
	Kind OpKind
	Loc  int    // hot word index (OpRead/OpWrite/OpPrefetch) or counter index (OpFetchAdd)
	Dst  int    // peer node (OpSend/OpDMA), or sender slot (OpReadMail)
	Arg  uint64 // cycles (OpMask/OpCompute), exclusive flag (OpPrefetch)
}

// Config parameterizes one stress run. The zero value is unusable; call
// DefaultConfig.
type Config struct {
	Nodes int    // simulated processors
	Ops   int    // operations per node
	Lines int    // contended cache lines (two falsely-shared words each)
	Seed  uint64 // generator seed; the whole run is a pure function of it

	// MaxEvents bounds engine events so broken-protocol mutations that
	// livelock still terminate; 0 picks a budget scaled to Nodes*Ops.
	MaxEvents uint64
	// TraceCap sizes the event ring kept for failure reports.
	TraceCap int

	// Mix overrides the generator's op-kind weights: one non-negative
	// integer per OpKind, in kind order (OpRead..OpCompute). nil keeps the
	// built-in adversarial mix. Malformed mixes (wrong length, negative
	// weight, all-zero) are rejected by Validate with a descriptive error —
	// never silently renormalized — because a misweighted mix quietly
	// changes what a seed reproduces.
	Mix []int

	// Ideal runs the program over the contention-free constant-latency
	// network instead of the mesh. The schedule explorer sets it: link
	// contention makes every pair of in-flight packets order-dependent,
	// which partial-order reduction must not have to reason about.
	Ideal bool

	// Hook, when non-nil, is called with the fully-built machine — oracles
	// attached, programs spawned — immediately before the run starts. The
	// schedule explorer installs its sim.Chooser here; tests use it to
	// observe machine state mid-run.
	Hook func(*machine.Machine)

	// MemFault and CMMUFault inject deliberate protocol mutations; used by
	// the checker regression tests (nil for real fuzzing).
	MemFault  *mem.Fault
	CMMUFault *cmmu.Fault

	// NetFault makes the interconnect lossy (machine.New interposes the
	// reliability sublayer automatically, so the protocol oracles still
	// demand exactly-once semantics). A zero NetFault.Seed is defaulted
	// from the run seed, so the fault schedule travels with the repro line
	// and survives shrinking unchanged.
	NetFault *mesh.NetFault
	// RelFault injects reliability-sublayer bugs (mutation testing). It
	// forces the sublayer on even over a perfect mesh.
	RelFault *cmmu.RelFault

	// Capture, when set, retains the full observed history plus trace and
	// stats fingerprints in the Result. The determinism goldens use it to
	// assert that hot-path rewrites reproduce the reference implementation
	// bit for bit.
	Capture bool
}

// DefaultConfig returns the standard adversarial small machine: 8 nodes, a
// 4-line direct-mapped cache (relentless eviction pressure), 2 LimitLESS
// hardware pointers (overflow with three sharers), 6 hot lines aliasing in
// 4 cache sets.
func DefaultConfig(seed uint64) Config {
	return Config{
		Nodes:    8,
		Ops:      2000,
		Lines:    6,
		Seed:     seed,
		TraceCap: 256,
	}
}

// defaultMix is the built-in adversarial op distribution (percent weights,
// one per OpKind in kind order). It reproduces the generator's original
// hardcoded thresholds exactly: with Mix nil, every seed generates the
// byte-identical program it always has (the determinism goldens pin this).
var defaultMix = [int(opKinds)]int{28, 24, 8, 8, 10, 6, 6, 3, 7}

// Validate rejects configurations whose intent is ambiguous, with an error
// saying what to fix — the alternative (silently renormalizing a malformed
// mix, or silently deriving a fault schedule from nothing) makes a repro
// line mean something other than what the user wrote. The zero-default
// size fields (Nodes, Ops, ... == 0 means "pick the default") stay legal;
// negative values are always mistakes. Run, Execute and Shrink call this;
// it is exported so CLIs can fail fast before generating programs.
func (cfg *Config) Validate() error {
	if cfg.Nodes < 0 || cfg.Ops < 0 || cfg.Lines < 0 || cfg.TraceCap < 0 {
		return fmt.Errorf("stress: negative size (nodes=%d ops=%d lines=%d tracecap=%d): zero means default, negatives are mistakes",
			cfg.Nodes, cfg.Ops, cfg.Lines, cfg.TraceCap)
	}
	if err := cfg.validateMix(); err != nil {
		return err
	}
	if cfg.NetFault != nil && cfg.NetFault.Seed == 0 && cfg.NetFault.Chooser == nil && cfg.Seed == 0 {
		return fmt.Errorf("stress: NetFault.Seed and Config.Seed are both zero, leaving nothing to derive the fault schedule from; set one explicitly (LossFromSeed always does)")
	}
	return nil
}

func (cfg *Config) validateMix() error {
	if cfg.Mix == nil {
		return nil
	}
	if len(cfg.Mix) != int(opKinds) {
		return fmt.Errorf("stress: op mix has %d weights, want %d (one per kind %s..%s)",
			len(cfg.Mix), int(opKinds), OpKind(0), opKinds-1)
	}
	total := 0
	for k, w := range cfg.Mix {
		if w < 0 {
			return fmt.Errorf("stress: op mix weight for %s is %d; weights must be non-negative", OpKind(k), w)
		}
		total += w
	}
	if total == 0 {
		return fmt.Errorf("stress: op mix weights sum to zero; at least one kind needs positive weight")
	}
	return nil
}

// mix returns the effective weight table and its total. Callers reach it
// through Run/Execute/Shrink, which have already validated; Generate is
// exported and pure, so a malformed mix arriving there is a programming
// error and panics with the same description Validate returns.
func (cfg *Config) mix() ([]int, int) {
	if err := cfg.validateMix(); err != nil {
		panic(err)
	}
	w := defaultMix[:]
	if cfg.Mix != nil {
		w = cfg.Mix
	}
	total := 0
	for _, v := range w {
		total += v
	}
	return w, total
}

func (cfg *Config) fill() {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	if cfg.Lines <= 0 {
		cfg.Lines = 6
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = 256
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 400*uint64(cfg.Nodes)*uint64(cfg.Ops) + 1_000_000
	}
}

// counters returns how many contended FetchAdd counters a config uses.
func (cfg *Config) counters() int {
	n := cfg.Lines / 2
	if n < 1 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	return n
}

// LossFromSeed derives a lossy-network regime from a run seed: drop, dup
// and reorder rates each land in roughly the 0.1%-2% band the recovery
// machinery is sized for, decorrelated from the op-stream randomness so
// `-loss -seed 0x…` sweeps fault schedules and programs together. Like
// Generate, it is a pure function of the seed.
func LossFromSeed(seed uint64) *mesh.NetFault {
	rate := func(salt uint64) float64 {
		return 0.001 + float64(sim.SplitMix64(seed^salt)%19001)/1e6 // [0.1%, 2%]
	}
	return &mesh.NetFault{
		Seed:    sim.SplitMix64(seed ^ 0xfa017),
		Drop:    rate(0xd809),
		Dup:     rate(0xd00b),
		Reorder: rate(0x4e04),
	}
}

// Generate produces the per-node op streams for a config. It is a pure
// function of the config: the same seed always yields identical streams,
// independent of any simulation state (the replay guarantee rests on this).
func Generate(cfg Config) [][]Op {
	cfg.fill()
	weights, total := cfg.mix()
	prog := make([][]Op, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		rng := rand.New(rand.NewSource(int64(sim.SplitMix64(cfg.Seed ^ uint64(n)*0x9e3779b97f4a7c15 ^ 0xa5a5))))
		ops := make([]Op, cfg.Ops)
		for i := range ops {
			ops[i] = genOp(cfg, weights, total, n, rng)
		}
		prog[n] = ops
	}
	return prog
}

func genOp(cfg Config, weights []int, total int, node int, rng *rand.Rand) Op {
	words := cfg.Lines * mem.LineWords
	peer := func() int {
		if cfg.Nodes == 1 {
			return 0
		}
		d := rng.Intn(cfg.Nodes - 1)
		if d >= node {
			d++
		}
		return d
	}
	// Hot-word choice is skewed: half the traffic hammers the first two
	// lines (hot homes + false sharing), the rest spreads over all lines
	// (eviction pressure + LimitLESS width).
	hotWord := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(2 * mem.LineWords)
		}
		return rng.Intn(words)
	}
	// One draw over the cumulative weight table; with the default mix this
	// consumes rng identically to the original hardcoded Intn(100) ladder,
	// so existing seeds generate byte-identical programs.
	w := rng.Intn(total)
	k := OpKind(0)
	for w >= weights[k] {
		w -= weights[k]
		k++
	}
	switch k {
	case OpRead:
		return Op{Kind: OpRead, Loc: hotWord()}
	case OpWrite:
		return Op{Kind: OpWrite, Loc: hotWord()}
	case OpFetchAdd:
		return Op{Kind: OpFetchAdd, Loc: rng.Intn(cfg.counters())}
	case OpPrefetch:
		return Op{Kind: OpPrefetch, Loc: hotWord(), Arg: uint64(rng.Intn(2))}
	case OpSend:
		return Op{Kind: OpSend, Dst: peer()}
	case OpDMA:
		return Op{Kind: OpDMA, Dst: peer(), Loc: rng.Intn(cfg.Lines)}
	case OpReadMail:
		return Op{Kind: OpReadMail, Dst: rng.Intn(cfg.Nodes)}
	case OpMask:
		return Op{Kind: OpMask, Arg: uint64(10 + rng.Intn(200))}
	default:
		return Op{Kind: OpCompute, Arg: uint64(1 + rng.Intn(100))}
	}
}

// CountOps sums the ops in a program (shrink reporting).
func CountOps(prog [][]Op) int {
	n := 0
	for _, ops := range prog {
		n += len(ops)
	}
	return n
}
