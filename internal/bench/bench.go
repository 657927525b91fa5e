// Package bench regenerates every table and figure in the paper's
// evaluation (Section 4). Each experiment prints the same rows or series
// the paper reports, next to the paper's published values, so shape and
// crossover comparisons are immediate. EXPERIMENTS.md records a full run.
package bench

import (
	"fmt"
	"io"
	"sort"

	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/mesh"
)

// Config controls an experiment run.
type Config struct {
	Nodes    int    // processors (the paper uses 64)
	Quick    bool   // trimmed sweeps for test runs
	CSVDir   string // when set, experiments also write <id>.csv files here
	Parallel int    // worker goroutines for independent runs (0 or 1: serial)
	// Loss > 0 runs every experiment over lossy wires: each packet is
	// dropped, duplicated and reordered with this probability, and the
	// reliable-delivery sublayer recovers. The numbers then answer "what
	// do the paper's figures look like on an unreliable interconnect".
	Loss    float64
	NetSeed uint64 // fault-schedule seed for Loss (0 picks 1)
}

// DefaultConfig matches the paper's machine size.
func DefaultConfig() Config { return Config{Nodes: 64} }

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer)

	// MinNodes is the fewest processors the experiment runs on (0: one).
	MinNodes int
	// Grid, when nonzero, is the side of the smallest Jacobi grid the
	// experiment partitions (any larger one is a multiple of it): the
	// mesh.Dims processor grid of the machine must divide it.
	Grid int
	// LivelocksOnTwo marks experiments whose hybrid work stealing
	// livelocks on a two-node machine: a stolen task lands on the thief's
	// stealable queue before its scheduler starts it, and the other
	// node's pending steal takes it straight back.
	LivelocksOnTwo bool
}

// CheckNodes reports why the experiment cannot run on cfg's machine size,
// or nil when it can.
func (e Experiment) CheckNodes(cfg Config) error {
	n := cfg.Nodes
	if n < e.MinNodes {
		return fmt.Errorf("%s needs at least %d nodes, got %d", e.ID, e.MinNodes, n)
	}
	if e.Grid != 0 {
		if pw, ph := mesh.Dims(n); e.Grid%pw != 0 || e.Grid%ph != 0 {
			return fmt.Errorf("%s: %d nodes form a %dx%d processor grid, which does not divide its %dx%d Jacobi grid",
				e.ID, n, pw, ph, e.Grid, e.Grid)
		}
	}
	if e.LivelocksOnTwo && n == 2 {
		return fmt.Errorf("%s cannot run on 2 nodes: the hybrid scheduler livelocks, each node stealing back the task the other just stole before it starts", e.ID)
	}
	return nil
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in ID order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// machCfg is the standard machine configuration with the experiment
// config's wire-fault regime applied; every experiment builds through it so
// -loss reaches the ablations too.
func machCfg(cfg Config, nodes int) machine.Config {
	mc := machine.DefaultConfig(nodes)
	if cfg.Loss > 0 {
		seed := cfg.NetSeed
		if seed == 0 {
			seed = 1
		}
		mc.Net.Fault = &mesh.NetFault{Seed: seed, Drop: cfg.Loss, Dup: cfg.Loss, Reorder: cfg.Loss}
	}
	return mc
}

// newMachine builds the standard Alewife-like machine.
func newMachine(cfg Config, nodes int) *machine.Machine {
	return machine.New(machCfg(cfg, nodes))
}

// newRT builds a runtime in the given mode on a fresh machine.
func newRT(cfg Config, nodes int, mode core.Mode) *core.RT {
	return core.NewDefault(newMachine(cfg, nodes), mode)
}

// micros converts cycles to microseconds at the Alewife clock.
func micros(cycles uint64) float64 { return float64(cycles) / machine.ClockMHz }
