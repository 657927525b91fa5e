// Command alewife-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated Alewife machine.
//
// Usage:
//
//	alewife-bench -list
//	alewife-bench -experiment fig7
//	alewife-bench -all [-nodes 64] [-quick] [-parallel 8]
//
// Every experiment (and every sweep point inside one) is a self-contained
// simulation, so -parallel fans them out across cores; results are emitted
// in the serial order, byte-identical to a serial run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"alewife/internal/bench"
	"alewife/internal/sim/fanout"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alewife-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and exit")
	exp := fs.String("experiment", "", "run one experiment by id")
	all := fs.Bool("all", false, "run every experiment")
	nodes := fs.Int("nodes", 64, "number of processors")
	quick := fs.Bool("quick", false, "trimmed parameter sweeps")
	csvDir := fs.String("csv", "", "also write <experiment>.csv files to this directory")
	parallel := fs.Int("parallel", 1, "worker goroutines for independent simulations (0 = all cores); output order is unchanged")
	loss := fs.Float64("loss", 0, "per-packet drop/dup/reorder probability; >0 reruns the evaluation over lossy wires with reliable delivery")
	netseed := fs.Uint64("netseed", 0, "fault-schedule seed for -loss (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *loss < 0 || *loss > 0.5 {
		fmt.Fprintln(stderr, "-loss must be in [0, 0.5]")
		return 2
	}
	if *nodes < 1 {
		fmt.Fprintln(stderr, "-nodes must be at least 1")
		return 2
	}

	var selected []bench.Experiment
	switch {
	case *list:
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	case *exp != "":
		e, ok := bench.Find(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *exp)
			return 1
		}
		selected = []bench.Experiment{e}
	case *all:
		selected = bench.Experiments()
	default:
		fs.Usage()
		return 2
	}

	// Every selected experiment must be able to run on -nodes before any
	// of them starts.
	cfg := bench.Config{Nodes: *nodes, Quick: *quick, CSVDir: *csvDir,
		Parallel: fanout.Workers(*parallel), Loss: *loss, NetSeed: *netseed}
	for _, e := range selected {
		if err := e.CheckNodes(cfg); err != nil {
			fmt.Fprintf(stderr, "-nodes %d: %v\n", *nodes, err)
			return 2
		}
	}

	fanout.WarnIfSerial(stderr, *parallel)
	if *all {
		bench.RunAll(cfg, stdout)
		return 0
	}
	e := selected[0]
	fmt.Fprintf(stdout, "==> %s: %s\n", e.ID, e.Title)
	e.Run(cfg, stdout)
	return 0
}
