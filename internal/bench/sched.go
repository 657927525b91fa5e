package bench

import (
	"fmt"
	"io"

	"alewife/internal/apps"
	"alewife/internal/core"
)

func init() {
	register(Experiment{
		ID:             "fig9",
		Title:          "grain speedup vs grain size, hybrid vs SM scheduler (Section 4.5, Figure 9)",
		Run:            runFig9,
		LivelocksOnTwo: true,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "aq speedup vs problem size, hybrid vs SM scheduler (Section 4.5, Figure 10)",
		Run:   runFig10,
	})
}

// grainDepth matches the paper (n=12: 4096 leaf tasks for 64 processors);
// quick runs shrink it to keep test time sane.
func grainDepth(quick bool) int {
	if quick {
		return 9
	}
	return 12
}

func grainDelays(quick bool) []uint64 {
	if quick {
		return []uint64{0, 1000}
	}
	return []uint64{0, 100, 200, 400, 600, 800, 1000}
}

// fig9Paper holds the paper's quoted speedups at the endpoints: l -> {SM, hybrid}.
var fig9Paper = map[uint64][2]float64{0: {6.3, 12.0}, 1000: {36.4, 48.6}}

func runFig9(cfg Config, w io.Writer) {
	depth := grainDepth(cfg.Quick)
	fmt.Fprintf(w, "grain, depth %d (%d leaves), %d processors; speedup vs 1-node run\n",
		depth, 1<<depth, cfg.Nodes)
	t := NewTable("fig9", "l", "seq_ms", "sm_speedup", "hyb_speedup", "hyb_over_sm", "paper_sm", "paper_hyb")
	delays := grainDelays(cfg.Quick)
	type row struct{ seq, sm, hy apps.GrainResult }
	rows := parMap(cfg, len(delays), func(i int) row {
		l := delays[i]
		r := row{
			seq: apps.GrainSequential(newMachine(cfg, 1), depth, l),
			sm:  apps.GrainParallel(newRT(cfg, cfg.Nodes, core.ModeSharedMemory), depth, l),
			hy:  apps.GrainParallel(newRT(cfg, cfg.Nodes, core.ModeHybrid), depth, l),
		}
		if r.sm.Sum != r.seq.Sum || r.hy.Sum != r.seq.Sum {
			panic("bench: grain results diverge")
		}
		return r
	})
	for i, l := range delays {
		r := rows[i]
		spSM := float64(r.seq.Cycles) / float64(r.sm.Cycles)
		spHy := float64(r.seq.Cycles) / float64(r.hy.Cycles)
		paperSM, paperHy := "", ""
		if p, ok := fig9Paper[l]; ok && depth == 12 {
			paperSM = fmt.Sprintf("%.1f", p[0])
			paperHy = fmt.Sprintf("%.1f", p[1])
		}
		t.Add(l, micros(r.seq.Cycles)/1000, spSM, spHy, spHy/spSM, paperSM, paperHy)
	}
	t.Emit(cfg, w)
	fig9Attrib(cfg, w)
}

// aqTols sweep the smoothness threshold; looser tolerance = smaller
// problem. Values chosen so sequential times span the paper's x-axis
// (tens to hundreds of milliseconds at full size).
func aqTols(quick bool) []float64 {
	if quick {
		return []float64{0.02}
	}
	return []float64{0.05, 0.02, 0.008, 0.003, 0.001}
}

func runFig10(cfg Config, w io.Writer) {
	fmt.Fprintf(w, "aq on %d processors; speedup vs 1-node run\n", cfg.Nodes)
	t := NewTable("fig10", "tol", "cells", "seq_ms", "sm_speedup", "hyb_speedup", "hyb_over_sm")
	tols := aqTols(cfg.Quick)
	type row struct{ seq, sm, hy apps.AQResult }
	rows := parMap(cfg, len(tols), func(i int) row {
		tol := tols[i]
		r := row{
			seq: apps.AQSequential(newMachine(cfg, 1), tol),
			sm:  apps.AQParallel(newRT(cfg, cfg.Nodes, core.ModeSharedMemory), tol),
			hy:  apps.AQParallel(newRT(cfg, cfg.Nodes, core.ModeHybrid), tol),
		}
		if diff := r.sm.Integral - r.seq.Integral; diff > 1e-9 || diff < -1e-9 {
			panic("bench: aq results diverge")
		}
		return r
	})
	for i, tol := range tols {
		r := rows[i]
		spSM := float64(r.seq.Cycles) / float64(r.sm.Cycles)
		spHy := float64(r.seq.Cycles) / float64(r.hy.Cycles)
		t.Add(fmt.Sprintf("%.3g", tol), r.seq.Cells, micros(r.seq.Cycles)/1000, spSM, spHy, spHy/spSM)
	}
	t.Note("paper: hybrid ~2x at small problem sizes, >20%% better at ~800 ms sequential")
	t.Emit(cfg, w)
	fig10Attrib(cfg, w)
}
