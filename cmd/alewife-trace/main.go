// Command alewife-trace runs a small workload with event tracing enabled
// and prints the event stream plus per-kind and per-node summaries — a
// window into what the simulated machine actually does: coherence misses
// and fills, invalidations, recalls, message traffic, scheduling.
//
// With -chrome the retained events are also exported in Chrome trace_event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing; with
// -attrib the run is profiled and the per-bucket cycle attribution printed.
//
// Usage:
//
//	alewife-trace [-nodes 8] [-mode hybrid|sm] [-workload grain|jacobi|barrier] [-tail 40]
//	alewife-trace -workload jacobi -chrome trace.json
//	alewife-trace -workload grain -attrib
//	alewife-trace -workload jacobi -loss 0.01    # 1% lossy wires; watch retransmits
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"alewife"
	"alewife/internal/apps"
	"alewife/internal/machine"
	"alewife/internal/mesh"
)

// jacobiGrid is the side of the jacobi workload's grid; the processor grid
// mesh.Dims picks for -nodes must divide it.
const jacobiGrid = 32

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alewife-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 8, "number of processors")
	modeStr := fs.String("mode", "hybrid", "runtime mode: hybrid or sm")
	workload := fs.String("workload", "grain", "workload: grain, jacobi or barrier")
	tail := fs.Int("tail", 40, "trace events to print")
	chrome := fs.String("chrome", "", "also write the event stream as Chrome trace_event JSON to this file ('-' for stdout)")
	attrib := fs.Bool("attrib", false, "profile the run and print the per-bucket cycle attribution")
	loss := fs.Float64("loss", 0, "per-packet drop/dup/reorder probability; >0 runs over lossy wires with the reliable sublayer (retransmit and dup-drop events show in the trace)")
	netseed := fs.Uint64("netseed", 1, "fault-schedule seed for -loss")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *nodes < 1 {
		fmt.Fprintln(stderr, "-nodes must be at least 1")
		return 1
	}
	if *tail < 0 {
		fmt.Fprintln(stderr, "-tail must not be negative")
		return 1
	}
	if *workload == "jacobi" {
		if pw, ph := mesh.Dims(*nodes); jacobiGrid%pw != 0 || jacobiGrid%ph != 0 {
			fmt.Fprintf(stderr, "-workload jacobi: %d nodes form a %dx%d processor grid, which does not divide the %dx%d grid\n",
				*nodes, pw, ph, jacobiGrid, jacobiGrid)
			return 1
		}
	}

	mode := alewife.Hybrid
	if *modeStr == "sm" {
		mode = alewife.SharedMemory
	} else if *modeStr != "hybrid" {
		fmt.Fprintln(stderr, "mode must be hybrid or sm")
		return 1
	}
	if *loss < 0 || *loss > 0.5 {
		fmt.Fprintln(stderr, "-loss must be in [0, 0.5]")
		return 1
	}

	cfg := machine.DefaultConfig(*nodes)
	if *loss > 0 {
		cfg.Net.Fault = &mesh.NetFault{Seed: *netseed, Drop: *loss, Dup: *loss, Reorder: *loss}
	}
	m, err := alewife.NewMachineWith(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	buf := m.EnableTrace(1 << 16)
	if *attrib {
		m.EnableMetrics()
	}
	rt := alewife.NewRuntime(m, mode)

	switch *workload {
	case "grain":
		r := apps.GrainParallel(rt, 7, 100)
		fmt.Fprintf(stdout, "grain depth 7, l=100, %v mode: sum=%d in %d cycles\n\n", mode, r.Sum, r.Cycles)
	case "jacobi":
		r := apps.Jacobi(rt, jacobiGrid, 3)
		fmt.Fprintf(stdout, "jacobi %dx%d, 3 iters, %v mode: %d cycles/iter\n\n", jacobiGrid, jacobiGrid, mode, r.CyclesPerIter)
	case "barrier":
		rt.SPMD(func(p *machine.Proc) {
			for i := 0; i < 3; i++ {
				rt.Barrier().Sync(p)
			}
		})
		fmt.Fprintf(stdout, "3 barrier episodes, %v mode, machine time %d cycles\n\n", mode, m.Eng.Now())
	default:
		fmt.Fprintln(stderr, "unknown workload; use grain, jacobi or barrier")
		return 1
	}

	fmt.Fprintf(stdout, "--- last %d events ---\n%s\n", *tail, buf.Format(*tail))
	fmt.Fprintf(stdout, "--- events by kind ---\n%s\n", buf.Summary())
	fmt.Fprintln(stdout, "--- busiest nodes ---")
	for _, nc := range buf.NodeCounts() {
		fmt.Fprintf(stdout, "n%-3d %6d\n", nc.Node, nc.Count)
	}
	fmt.Fprintf(stdout, "\n--- machine counters ---\n%s", m.St.String())

	if prof := m.St.Prof; prof != nil {
		if err := prof.Finalize(uint64(m.Eng.Now())); err != nil {
			fmt.Fprintf(stderr, "attribution: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n--- cycle attribution ---\n%s", prof)
	}

	if *chrome != "" {
		w := stdout
		if *chrome != "-" {
			f, err := os.Create(*chrome)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := buf.ChromeJSON(w); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *chrome != "-" {
			fmt.Fprintf(stdout, "\nwrote %d trace events to %s (open in ui.perfetto.dev)\n", buf.Len(), *chrome)
		}
	}
	return 0
}
