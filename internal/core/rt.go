// Package core implements the Alewife runtime system from the paper: green
// threads with futures and lazy task creation, per-node ready queues with
// work stealing, combining-tree barriers, remote thread invocation, and
// bulk memory-to-memory copy — each in two flavours:
//
//   - ModeSharedMemory: every runtime communication goes through coherent
//     shared-memory loads, stores and atomic operations (the paper's
//     baseline implementation);
//   - ModeHybrid: scheduling, load balancing and synchronization use the
//     CMMU message interface where messages win (the paper's integrated
//     implementation), while application data still lives in shared memory.
//
// The two modes expose identical APIs so applications and benchmarks run
// unchanged under either, exactly like the paper's experiments.
package core

import (
	"fmt"
	"math/rand"

	"alewife/internal/machine"
)

// Mode selects the runtime communication style.
type Mode int

// Runtime modes.
const (
	ModeSharedMemory Mode = iota
	ModeHybrid
)

func (m Mode) String() string {
	if m == ModeHybrid {
		return "hybrid"
	}
	return "shared-memory"
}

// StealPolicy selects the victim order for work stealing.
type StealPolicy int

// Steal policies.
const (
	StealRandom StealPolicy = iota // uniform random victim (default)
	StealScan                      // round-robin scan from node+1
)

// The runtime's cost model: cycles charged for software paths that are not
// themselves simulated instruction by instruction, and the sizes of its
// structures.
const (
	switchCycles   = 40   // dispatch a thread onto the processor
	forkCycles     = 10   // create a task descriptor (lazy creation is cheap)
	queueOpCycles  = 8    // hybrid-mode local queue op (masked, in-cache)
	handlerQueueOp = 25   // queue op performed inside a message handler
	idleBackoff    = 50   // idle poll period and first backoff step
	maxProbes      = 2    // victims probed per steal sweep
	taskWords      = 8    // task descriptor size in words (migration cost)
	queueCap       = 4096 // slots per simulated ready queue
	copySetup      = 200  // sender-side software setup of a bulk transfer
	copyHandler    = 260  // receiver-side software cost of a bulk transfer
)

// Message types owned by the runtime.
const (
	msgSteal = iota + 1
	msgTask
	msgNoTask
	msgWake
	msgInvoke
	msgBarArrive
	msgBarWake
	msgCopy
	msgCopyAck
	msgCopyReq
)

// RT is one runtime instance spanning a machine.
type RT struct {
	M    *machine.Machine
	Mode Mode
	Pol  StealPolicy

	cores []*core
	done  bool

	tasks    map[uint64]*Task   // id -> unstarted task, for message-carried references
	threads  map[uint64]*Thread // id -> running or suspended thread, for wake messages
	copies   map[uint64]*copyOp // id -> in-flight bulk transfer
	watchers map[uint64]func()  // token -> notify-copy watcher
	nextID   uint64

	// freeTasks and freeThreads hold the records of finished forked tasks
	// and finished threads for getTask and getThread to reuse.
	freeTasks   []*Task
	freeThreads []*Thread

	barrier *Barrier
}

// New builds a runtime over m in the given mode and installs its message
// handlers. Both modes install them, so the bulk-copy primitives (CopyMP,
// FetchMP and the rest) also run on a shared-memory runtime.
func New(m *machine.Machine, mode Mode, pol StealPolicy) *RT {
	rt := &RT{M: m, Mode: mode, Pol: pol,
		tasks:    make(map[uint64]*Task),
		threads:  make(map[uint64]*Thread),
		copies:   make(map[uint64]*copyOp),
		watchers: make(map[uint64]func())}
	rt.cores = make([]*core, m.Cfg.Nodes)
	for i := range rt.cores {
		rt.cores[i] = newCore(rt, i)
	}
	for i := range rt.cores {
		rt.cores[i].registerHandlers()
	}
	rt.barrier = newBarrier(rt)
	return rt
}

// NewDefault builds a runtime with the default (random) steal policy.
func NewDefault(m *machine.Machine, mode Mode) *RT {
	return New(m, mode, StealRandom)
}

// Cores returns the number of processors.
func (rt *RT) Cores() int { return len(rt.cores) }

// Barrier returns the runtime's global barrier.
func (rt *RT) Barrier() *Barrier { return rt.barrier }

// newTaskID allocates a machine-unique task id.
func (rt *RT) newTaskID() uint64 {
	rt.nextID++
	return rt.nextID
}

// Run boots the scheduler loop on every node, enqueues root on node 0, and
// drives the simulation until root's future resolves; it returns the cycle
// count from boot to resolution. The schedulers then shut down and the
// engine drains.
func (rt *RT) Run(root func(*TC) uint64) (result uint64, cycles uint64) {
	rt.done = false
	f := rt.NewFuture(0)
	task := rt.newTask(func(tc *TC) {
		v := root(tc)
		f.Resolve(tc, v)
		rt.finish()
	})
	rt.cores[0].pushLocalBoot(task)
	for _, c := range rt.cores {
		c.boot()
	}
	start := rt.M.Eng.Now()
	rt.M.Run()
	if !f.done {
		panic("core: root task never resolved")
	}
	return f.val, rt.M.Eng.Now() - start
}

// finish signals global termination to every scheduler loop.
func (rt *RT) finish() {
	rt.done = true
	for _, c := range rt.cores {
		c.wakeIdle()
	}
}

// Done reports whether the runtime has terminated (visible to scheduler
// loops as the in-memory kill flag a real runtime would poll).
func (rt *RT) Done() bool { return rt.done }

// rng builds a deterministic per-node random stream.
func rng(node int) *rand.Rand { return rand.New(rand.NewSource(int64(node)*2654435761 + 1)) }

// sanity guards for message plumbing.
func (rt *RT) task(id uint64) *Task {
	t := rt.tasks[id]
	if t == nil {
		panic(fmt.Sprintf("core: unknown task id %d", id))
	}
	return t
}

func (rt *RT) thread(id uint64) *Thread {
	t := rt.threads[id]
	if t == nil {
		panic(fmt.Sprintf("core: unknown thread id %d", id))
	}
	return t
}
