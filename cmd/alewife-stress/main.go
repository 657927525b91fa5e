// Command alewife-stress fuzzes the coherence protocol and network
// interface with deterministic adversarial programs, checking protocol
// invariants live on every state transition and verifying the observed
// load/store history is sequentially consistent per location.
//
// Usage:
//
//	alewife-stress -ops 5000 -seeds 64        # fuzz 64 seeds
//	alewife-stress -seeds 64 -parallel 8      # same seeds, 8 workers
//	alewife-stress -loss -seeds 64            # same, over seed-derived lossy wires
//	alewife-stress -seed 0x2a                 # replay one failing seed
//	alewife-stress -loss -seed 0x2a           # replay it with its fault schedule
//	alewife-stress -seed 0x2a -shrink         # and minimize the program
//
// Every failure prints a one-line repro; re-running it reproduces the
// identical violation at the identical cycle. Each seed is a fully
// self-contained simulation, so -parallel fans seeds out across cores;
// per-seed output is buffered and printed in seed order, byte-identical
// to a serial run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"alewife/internal/cmmu"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/sim/fanout"
	"alewife/internal/stress"
)

// faults maps -fault names to injected protocol mutations (checker demos).
// The rel-* entries break the reliability sublayer instead of the coherence
// protocol; the ones that only misbehave on faulty wires pair themselves
// with the loss regime they need.
var faults = map[string]func(cfg *stress.Config){
	"drop-inval":     func(c *stress.Config) { c.MemFault = &mem.Fault{DropInval: true} },
	"forget-sharer":  func(c *stress.Config) { c.MemFault = &mem.Fault{ForgetSharer: true} },
	"wrong-owner":    func(c *stress.Config) { c.MemFault = &mem.Fault{WrongOwner: true} },
	"skip-inval":     func(c *stress.Config) { c.MemFault = &mem.Fault{SkipInval: true} },
	"wb-to-shared":   func(c *stress.Config) { c.MemFault = &mem.Fault{WBToShared: true} },
	"drop-writeback": func(c *stress.Config) { c.MemFault = &mem.Fault{DropWriteback: true} },
	"drain-masked":   func(c *stress.Config) { c.CMMUFault = &cmmu.Fault{DrainMasked: true} },
	"drop-ack":       func(c *stress.Config) { c.RelFault = &cmmu.RelFault{DropAck: true} },
	"accept-stale": func(c *stress.Config) {
		c.RelFault = &cmmu.RelFault{AcceptStale: true}
		if c.NetFault == nil {
			c.NetFault = &mesh.NetFault{Dup: 0.05}
		}
	},
	"dedup-off-by-one": func(c *stress.Config) { c.RelFault = &cmmu.RelFault{DedupOffByOne: true} },
	"no-retransmit": func(c *stress.Config) {
		c.RelFault = &cmmu.RelFault{NoRetransmit: true}
		if c.NetFault == nil {
			c.NetFault = &mesh.NetFault{Drop: 0.02}
		}
	},
}

func faultNames() []string {
	names := make([]string, 0, len(faults))
	for k := range faults {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// seedResult is one seed's buffered outcome, printed in seed order.
type seedResult struct {
	out    string
	failed bool
	ops    int64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alewife-stress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 0, "base seed (a run is a pure function of its seed)")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to run")
	ops := fs.Int("ops", 2000, "operations per simulated processor")
	nodes := fs.Int("nodes", 8, "simulated processors")
	lines := fs.Int("lines", 6, "contended cache lines")
	shrink := fs.Bool("shrink", false, "minimize failing programs before reporting")
	fault := fs.String("fault", "", "inject a protocol mutation (demos the checkers)")
	loss := fs.Bool("loss", false, "run over lossy wires: drop/dup/reorder rates derived from each seed")
	netseed := fs.Uint64("netseed", 0, "override the fault-schedule seed (0 = derive from the run seed)")
	parallel := fs.Int("parallel", 1, "worker goroutines for independent seeds (0 = all cores); output stays in seed order")
	verbose := fs.Bool("v", false, "print per-seed progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seeds < 1 {
		fmt.Fprintln(stderr, "-seeds must be at least 1")
		return 2
	}

	inject := func(*stress.Config) {}
	if *fault != "" {
		f, ok := faults[*fault]
		if !ok {
			fmt.Fprintf(stderr, "unknown -fault %q; one of %v\n", *fault, faultNames())
			return 2
		}
		inject = f
	}

	fanout.WarnIfSerial(stderr, *parallel)

	// Seeds share nothing — each builds its own machine and engine — so they
	// fan out across workers; buffering keeps repro lines in seed order.
	results := fanout.Run(*seeds, *parallel, func(i int) seedResult {
		cfg := stress.DefaultConfig(*seed + uint64(i))
		cfg.Ops = *ops
		cfg.Nodes = *nodes
		cfg.Lines = *lines
		if *loss {
			cfg.NetFault = stress.LossFromSeed(cfg.Seed)
		}
		inject(&cfg)
		if *netseed != 0 {
			if cfg.NetFault == nil {
				cfg.NetFault = stress.LossFromSeed(cfg.Seed)
			}
			cfg.NetFault.Seed = *netseed
		}
		res, err := stress.Run(cfg)
		var b strings.Builder
		if err != nil {
			fmt.Fprintf(&b, "seed %#x: bad config: %v\n", cfg.Seed, err)
			return seedResult{out: b.String(), failed: true}
		}
		if res.Failed() {
			b.WriteString(res.Report())
			if *shrink {
				prog, sres, _ := stress.Shrink(cfg, stress.Generate(cfg), 0)
				fmt.Fprintf(&b, "shrunk to %d ops (from %d); minimal repro still fails:\n",
					stress.CountOps(prog), *ops**nodes)
				b.WriteString(sres.Report())
			}
		} else if *verbose {
			b.WriteString(res.Report())
		}
		return seedResult{out: b.String(), failed: res.Failed(), ops: res.TotalOps}
	})

	failures := 0
	var totalOps int64
	for _, r := range results {
		fmt.Fprint(stdout, r.out)
		totalOps += r.ops
		if r.failed {
			failures++
		}
	}
	fmt.Fprintf(stdout, "stress: %d seeds, %d ops executed, %d failing\n", *seeds, totalOps, failures)
	if failures > 0 {
		return 1
	}
	return 0
}
