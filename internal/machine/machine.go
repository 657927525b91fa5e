// Package machine assembles the Alewife-like multiprocessor: a discrete-
// event engine, a 2-D mesh, the distributed memory system with directory
// coherence, and one CMMU network interface per node. It exposes Proc, the
// processor API that simulated programs are written against — Figure 4 of
// the paper: the processor reaches both the shared-memory hardware and the
// network through one integrated interface.
package machine

import (
	"fmt"

	"alewife/internal/cmmu"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Topology selects the interconnect shape.
type Topology int

// Interconnect topologies.
const (
	TopoMesh  Topology = iota // 2-D mesh (Alewife)
	TopoTorus                 // 2-D torus (wrap-around links)
	TopoIdeal                 // contention-free constant latency (ablation)
)

// ClockMHz is the simulated processor clock (Alewife's 33 MHz Sparcle),
// for converting cycles to time in reports.
const ClockMHz = 33

// Config sizes a machine and holds the values experiments vary. The cost
// model itself is constants in the packages that charge it: mem (caches,
// directory, LimitLESS traps), mesh (flits, injection, ejection), cmmu
// (the message unit and the reliability sublayer) and core (the runtime).
type Config struct {
	Nodes int
	// WordsPerNode is the size of each node's address range in 8-byte
	// words, a power of two: the most AllocOn hands out on one node. It is
	// not host memory: the store allocates a page only where a run writes.
	WordsPerNode uint64
	CacheSets    int // a power of two
	CacheWays    int
	Topology     Topology
	// SeqConsistent disables the run-ahead relaxation: every shared-memory
	// access synchronizes with the global clock first, so cache state is
	// observed in strict global order. Slower to simulate; used to
	// validate that the default weak ordering does not change the results
	// of properly synchronized programs.
	SeqConsistent bool
	// HWPointers is the number of hardware sharer pointers in a LimitLESS
	// directory entry; a further sharer overflows the entry to software.
	HWPointers int
	Net        mesh.Params
	// Reliable forces the reliability sublayer on over a fault-free mesh,
	// which is how its overhead is measured in isolation. The sublayer is
	// interposed automatically whenever Net.Fault can drop, duplicate or
	// reorder packets (a lossy mesh without recovery would corrupt the
	// coherence protocol; jitter alone keeps FIFO and needs none).
	Reliable bool
}

// DefaultConfig returns the calibrated Alewife-like machine with n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:        n,
		WordsPerNode: 1 << 20, // 8 MB of address range per node
		CacheSets:    2048,    // 2048 sets x 2 ways x 16 B = 64 KB
		CacheWays:    2,
		HWPointers:   5,
		Net:          mesh.DefaultParams(),
	}
}

// Validate reports the first value of cfg that cannot build a machine.
func (cfg Config) Validate() error {
	pow2 := func(v uint64) bool { return v != 0 && v&(v-1) == 0 }
	prob := func(p float64) bool { return p >= 0 && p <= 1 } // false for NaN
	ft := cfg.Net.Fault
	switch {
	case cfg.Nodes < 1:
		return fmt.Errorf("machine: %d nodes, need at least 1", cfg.Nodes)
	case !pow2(cfg.WordsPerNode) || cfg.WordsPerNode < mem.LineWords:
		return fmt.Errorf("machine: WordsPerNode %d is not a power of two of at least %d (one line)",
			cfg.WordsPerNode, mem.LineWords)
	case cfg.CacheSets < 1 || !pow2(uint64(cfg.CacheSets)):
		return fmt.Errorf("machine: CacheSets %d is not a positive power of two", cfg.CacheSets)
	case cfg.CacheWays < 1:
		return fmt.Errorf("machine: CacheWays %d, need at least 1", cfg.CacheWays)
	case cfg.HWPointers < 1:
		return fmt.Errorf("machine: HWPointers %d, need at least 1", cfg.HWPointers)
	case cfg.Topology < TopoMesh || cfg.Topology > TopoIdeal:
		return fmt.Errorf("machine: unknown topology %d", cfg.Topology)
	case ft != nil && !(prob(ft.Drop) && prob(ft.Dup) && prob(ft.Reorder)):
		return fmt.Errorf("machine: Net.Fault rates drop %v, dup %v, reorder %v are not all probabilities in [0, 1]",
			ft.Drop, ft.Dup, ft.Reorder)
	}
	return nil
}

// Machine is a full simulated multiprocessor.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   mesh.Network
	Store *mem.Store
	Fab   *mem.Fabric
	// St is the machine's one instrumentation handle: its counters, and
	// its Trace and Prof once EnableTrace and EnableMetrics set them.
	// Every subsystem holds this pointer.
	St    *stats.Machine
	Rel   *cmmu.Reliable // nil unless the reliability sublayer is interposed
	Nodes []*Node
}

// EnableTrace attaches an event trace buffer keeping the most recent cap
// events from the memory system, the network interfaces and the runtime.
//
//alewife:engine-only
func (m *Machine) EnableTrace(cap int) *trace.Buffer {
	m.St.Trace = trace.New(cap)
	return m.St.Trace
}

// EnableMetrics attaches a cycle-attribution profiler. Call it before
// spawning any Proc: each Proc caches the profiler pointer at spawn time
// so the disabled path stays a single nil branch. Metrics are pure
// bookkeeping — enabling them never changes simulated timing, so
// determinism goldens hold either way. Finalize the profiler with the
// engine's final Now() after the run.
//
//alewife:engine-only
func (m *Machine) EnableMetrics() *metrics.Profiler {
	m.St.Prof = metrics.New(m.Cfg.Nodes)
	return m.St.Prof
}

// Node is one processing node: processor state, cache controller, CMMU.
type Node struct {
	ID   int
	M    *Machine
	Ctrl *mem.Ctrl
	CMMU *cmmu.CMMU
}

// New builds a machine per cfg. It panics with Validate's error when cfg
// cannot build one.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Machine{Cfg: cfg, Eng: sim.NewEngine(), St: stats.NewMachine(cfg.Nodes)}
	w, h := mesh.Dims(cfg.Nodes)
	switch cfg.Topology {
	case TopoTorus:
		m.Net = mesh.NewTorus(m.Eng, w, h, cfg.Net, m.St)
	case TopoIdeal:
		// Faults apply just as on the mesh, so lossy ablations (and the
		// schedule explorer) work here too.
		m.Net = &mesh.Ideal{Eng: m.Eng, N: cfg.Nodes, St: m.St, Fault: cfg.Net.Fault}
	default:
		m.Net = mesh.New(m.Eng, w, h, cfg.Net, m.St)
	}
	if cfg.Net.Fault.Lossy() || cfg.Reliable {
		// Interpose the reliability sublayer: every consumer above — the
		// coherence fabric as much as the message unit — sends through
		// m.Net, so wrapping it here restores exactly-once FIFO delivery
		// for the whole machine. With no lossy fault and no explicit
		// Reliable, the layer is absent: a fault-free data path is
		// byte-identical to a machine built before it existed, and a
		// jitter-only run drives the raw protocol.
		m.Rel = cmmu.NewReliable(m.Eng, m.Net, m.St)
		m.Net = m.Rel
	}
	m.Store = mem.NewStore(cfg.Nodes, cfg.WordsPerNode)
	m.Fab = mem.NewFabric(m.Eng, m.Net, m.Store, cfg.HWPointers, m.St, cfg.CacheSets, cfg.CacheWays)
	m.Nodes = make([]*Node, cfg.Nodes)
	ifaces := make([]*cmmu.CMMU, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{ID: i, M: m, Ctrl: m.Fab.Ctrls[i]}
		n.CMMU = cmmu.New(i, m.Eng, m.Net, m.Store, n.Ctrl, m.St)
		ifaces[i] = n.CMMU
		m.Nodes[i] = n
	}
	for _, c := range ifaces {
		c.SetPeers(ifaces)
	}
	return m
}

// Run drives the simulation until the event queue drains; it panics with a
// context dump if contexts remain blocked (deadlock in the simulated
// program or a protocol bug).
//
//alewife:engine-only
func (m *Machine) Run() {
	m.Eng.Run()
	if m.Eng.Live() > 0 {
		panic(fmt.Sprintf("machine: deadlock — %d contexts still blocked with no pending events: %v",
			m.Eng.Live(), m.Eng.Stuck()))
	}
}

// Micros converts a cycle count to microseconds at ClockMHz.
func (m *Machine) Micros(cycles uint64) float64 {
	return float64(cycles) / ClockMHz
}

// Spawn starts body on node's processor at time `at` and returns its Proc.
// The runtime system layers threads on top; tests and microbenchmarks use
// Spawn directly. The context prints as "n<node>:<name>".
//
//alewife:engine-only
func (m *Machine) Spawn(node int, at sim.Time, name string, body func(*Proc)) *Proc {
	return m.Respawn(nil, node, at, name, 0, body)
}

// Respawn starts body at time `at` on node's processor, reusing p, a Proc
// whose body has returned, together with its context; with p nil it builds
// a new one, as Spawn does. The context prints as "n<node>:<name><id>", or
// without the id when it is 0 (a runtime thread: "n3:thr1234"). Reuse
// allocates nothing unless the profiler is on.
//
//alewife:engine-only
func (m *Machine) Respawn(p *Proc, node int, at sim.Time, name string, id uint64, body func(*Proc)) *Proc {
	var c *sim.Context
	if p == nil {
		p = &Proc{}
		p.entry = func(*sim.Context) {
			body := p.body
			p.body = nil
			body(p)
		}
	} else {
		c = p.Ctx
	}
	p.Node, p.prof, p.body = m.Nodes[node], m.St.Prof, body
	p.ahead, p.aheadHit, p.aheadMiss, p.aheadMsg = 0, 0, 0, 0
	p.rlen = 0
	p.Ctx = m.Eng.Respawn(c, name, id, at, p.entry)
	p.Ctx.Node = int32(node)
	if p.prof != nil {
		p.Ctx.BlockNote = p.noteBlock
	}
	return p
}
