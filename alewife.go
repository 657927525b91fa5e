// Package alewife is a simulation-backed reproduction of the system in
// "Integrating Message-Passing and Shared-Memory: Early Experience"
// (Kranz, Johnson, Agarwal, Kubiatowicz, Lim — PPoPP 1993): the MIT
// Alewife machine's integration of coherent shared memory and user-level
// message passing behind one network interface, and the runtime system
// that exploits both.
//
// The package is a facade over the internal implementation:
//
//   - NewMachine builds a cycle-accounting simulated multiprocessor —
//     2-D mesh, per-node caches, LimitLESS directory coherence, and the
//     CMMU message interface (internal/sim, mesh, mem, cmmu, machine);
//   - NewRuntime builds the Alewife runtime on top — green threads with
//     futures, work-stealing schedulers, combining-tree barriers, remote
//     thread invocation and bulk transfer — in either of the paper's two
//     flavours: SharedMemory (all runtime communication through coherent
//     loads/stores) or Hybrid (messages where messages win);
//   - the re-exported application and benchmark entry points regenerate
//     the paper's evaluation (see cmd/alewife-bench and EXPERIMENTS.md).
//
// A minimal program:
//
//	m := alewife.NewMachine(16)
//	rt := alewife.NewRuntime(m, alewife.Hybrid)
//	sum, cycles := rt.Run(func(tc *alewife.TC) uint64 {
//	    a := tc.Fork(func(*alewife.TC) uint64 { return 20 })
//	    b := tc.Fork(func(*alewife.TC) uint64 { return 22 })
//	    return a.Touch(tc) + b.Touch(tc)
//	})
//
// See examples/ for complete programs.
package alewife

import (
	"alewife/internal/cmmu"
	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
)

// Machine is a simulated Alewife-like multiprocessor.
type Machine = machine.Machine

// Config sizes a machine and holds what experiments vary: node count,
// memory and cache geometry, topology, sequential consistency, LimitLESS
// hardware pointers, router delay, network faults and forced reliable
// delivery. The cycle-cost model is calibrated constants in the
// simulator's packages, not configuration.
type Config = machine.Config

// Proc is the processor interface simulated programs run against.
type Proc = machine.Proc

// Addr is a global word address in the shared address space.
type Addr = mem.Addr

// Time is the simulation clock in processor cycles.
type Time = sim.Time

// RT is the Alewife runtime system.
type RT = core.RT

// TC is the thread context passed to every task body. It is valid only
// while that body runs: the runtime recycles it for the next task.
type TC = core.TC

// Future is a single-assignment synchronization cell.
type Future = core.Future

// Task is an unstarted unit of work for remote invocation.
type Task = core.Task

// Barrier is the combining-tree barrier.
type Barrier = core.Barrier

// Descriptor describes an outgoing CMMU message.
type Descriptor = cmmu.Descriptor

// Env is a received message as seen by its handler.
type Env = cmmu.Env

// Region names memory for DMA gather/scatter.
type Region = cmmu.Region

// Mode selects the runtime communication style.
type Mode = core.Mode

// Runtime modes: the paper's baseline and integrated implementations.
const (
	SharedMemory = core.ModeSharedMemory
	Hybrid       = core.ModeHybrid
)

// DefaultConfig returns the calibrated Alewife-like machine configuration
// for n nodes: 33 MHz clock, 64 KB 2-way caches with 16-byte lines,
// LimitLESS directories with 5 hardware pointers, 2-D mesh.
func DefaultConfig(n int) Config { return machine.DefaultConfig(n) }

// NewMachine builds a simulated machine with n processors and the default
// calibrated cost model.
func NewMachine(n int) *Machine { return machine.New(machine.DefaultConfig(n)) }

// NewMachineWith builds a machine from an explicit configuration, or
// returns the error that rejects it.
func NewMachineWith(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return machine.New(cfg), nil
}

// NewRuntime builds the runtime system over m in the given mode.
func NewRuntime(m *Machine, mode Mode) *RT { return core.NewDefault(m, mode) }

// CopySM is the shared-memory bulk copy loop (Section 4.4): doubleword
// loads and stores, optionally prefetching one block ahead.
func CopySM(p *Proc, dst, src Addr, words uint64, prefetch bool) {
	core.CopySM(p, dst, src, words, prefetch)
}
