package core

import (
	"testing"

	"alewife/internal/machine"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

func TestBarrierSingleNodeTrivial(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(1, mode)
		cycles := rt.SPMD(func(p *machine.Proc) {
			rt.Barrier().Sync(p)
			rt.Barrier().Sync(p)
		})
		if cycles > 100 {
			t.Fatalf("1-node barrier cost %d cycles", cycles)
		}
	})
}

func TestBarrierOddArities(t *testing.T) {
	for _, arity := range []int{2, 3, 5, 7} {
		bothModes(t, func(t *testing.T, mode Mode) {
			rt := newRT(13, mode) // deliberately not a power of the arity
			rt.Barrier().SetArity(arity, arity)
			rounds := 0
			rt.SPMD(func(p *machine.Proc) {
				for r := 0; r < 3; r++ {
					rt.Barrier().Sync(p)
				}
				if p.ID() == 0 {
					rounds = 3
				}
			})
			if rounds != 3 {
				t.Fatalf("arity %d: barrier did not complete", arity)
			}
		})
	}
}

func TestBarrierBadArityPanics(t *testing.T) {
	rt := newRT(4, ModeHybrid)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for arity < 2")
		}
	}()
	rt.Barrier().SetArity(1, 2)
}

func TestBarrierManyEpochsReusable(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		const nodes, rounds = 9, 40
		rt := newRT(nodes, mode)
		done := make([]int, nodes)
		rt.SPMD(func(p *machine.Proc) {
			for r := 0; r < rounds; r++ {
				p.Elapse(uint64((p.ID()*7+r*3)%50 + 1))
				rt.Barrier().Sync(p)
				done[p.ID()]++
			}
		})
		for i, d := range done {
			if d != rounds {
				t.Fatalf("%v: node %d completed %d/%d rounds", mode, i, d, rounds)
			}
		}
	})
}

func TestBarrierExtremeSkew(t *testing.T) {
	// One node enters epoch 2 while stragglers are still approaching
	// epoch 1 — generation handling must keep epochs separate.
	bothModes(t, func(t *testing.T, mode Mode) {
		const nodes = 5
		rt := newRT(nodes, mode)
		var passed [nodes][2]sim.Time
		rt.SPMD(func(p *machine.Proc) {
			if p.ID() == 4 {
				p.Elapse(30000) // very late arrival to epoch 1
			}
			rt.Barrier().Sync(p)
			p.Flush()
			passed[p.ID()][0] = p.Ctx.Now()
			if p.ID() == 0 {
				p.Elapse(20000) // very late arrival to epoch 2
			}
			rt.Barrier().Sync(p)
			p.Flush()
			passed[p.ID()][1] = p.Ctx.Now()
		})
		for i := 0; i < nodes; i++ {
			if passed[i][0] < 30000 {
				t.Fatalf("%v: node %d passed epoch 1 at %d before the straggler", mode, i, passed[i][0])
			}
			if passed[i][1] < passed[0][1]-1 && passed[i][1] < 50000 {
				t.Fatalf("%v: node %d passed epoch 2 at %d too early", mode, i, passed[i][1])
			}
		}
	})
}

func TestBarrierCountsEpisodes(t *testing.T) {
	rt := newRT(4, ModeHybrid)
	rt.SPMD(func(p *machine.Proc) {
		rt.Barrier().Sync(p)
		rt.Barrier().Sync(p)
	})
	if got := rt.M.St.Global.Get(stats.BarrierEpisodes); got != 8 {
		t.Fatalf("barrier episodes counted = %d, want 8 (4 nodes x 2)", got)
	}
}

func TestMsgBarrierScalesBetter(t *testing.T) {
	// The SM/MP ratio should not shrink as the machine grows (the paper's
	// scalability argument).
	ratio := func(nodes int) float64 {
		measure := func(mode Mode) uint64 {
			rt := newRT(nodes, mode)
			return rt.SPMD(func(p *machine.Proc) {
				for i := 0; i < 4; i++ {
					rt.Barrier().Sync(p)
				}
			})
		}
		return float64(measure(ModeSharedMemory)) / float64(measure(ModeHybrid))
	}
	small := ratio(8)
	big := ratio(64)
	t.Logf("barrier SM/MP ratio: 8 procs %.2f, 64 procs %.2f", small, big)
	if big < small*0.8 {
		t.Fatalf("message barrier advantage collapsed with scale: %.2f -> %.2f", small, big)
	}
}
