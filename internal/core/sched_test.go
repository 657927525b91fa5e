package core

import (
	"testing"

	"alewife/internal/machine"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

func TestDeepForkTree(t *testing.T) {
	// Depth 12 on one node: thousands of green threads multiplexed on a
	// single processor without deadlock or stack issues.
	rt := newRT(1, ModeHybrid)
	v, _ := rt.Run(func(tc *TC) uint64 { return treeSum(tc, 12) })
	if v != 4096 {
		t.Fatalf("deep tree sum = %d, want 4096", v)
	}
}

func TestWideFork(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(8, mode)
		const width = 500
		v, _ := rt.Run(func(tc *TC) uint64 {
			fs := make([]*Future, width)
			for i := range fs {
				fs[i] = tc.Fork(func(c *TC) uint64 {
					c.Elapse(50)
					return 1
				})
			}
			var sum uint64
			for _, f := range fs {
				sum += f.Touch(tc)
			}
			return sum
		})
		if v != width {
			t.Fatalf("%v: wide fork sum = %d, want %d", mode, v, width)
		}
	})
}

func TestWorkSpreadsAcrossNodes(t *testing.T) {
	// With enough parallel slack, every node should run at least one
	// thread in both modes.
	bothModes(t, func(t *testing.T, mode Mode) {
		const nodes = 8
		rt := newRT(nodes, mode)
		ran := make([]bool, nodes)
		rt.Run(func(tc *TC) uint64 {
			fs := make([]*Future, 64)
			for i := range fs {
				fs[i] = tc.Fork(func(c *TC) uint64 {
					ran[c.ID()] = true
					c.Elapse(3000)
					return 1
				})
			}
			var s uint64
			for _, f := range fs {
				s += f.Touch(tc)
			}
			return s
		})
		for i, r := range ran {
			if !r {
				t.Fatalf("%v: node %d never ran a thread", mode, i)
			}
		}
	})
}

func TestSchedulerCountsThreads(t *testing.T) {
	rt := newRT(4, ModeHybrid)
	rt.Run(func(tc *TC) uint64 {
		f := tc.Fork(func(*TC) uint64 { return 1 })
		g := tc.Fork(func(*TC) uint64 { return 2 })
		return f.Touch(tc) + g.Touch(tc)
	})
	// Root + 2 children = 3 threads.
	if got := rt.M.St.Global.Get(stats.ThreadsCreated); got != 3 {
		t.Fatalf("threads created = %d, want 3", got)
	}
}

func TestHybridStealsCarryWholeTask(t *testing.T) {
	// In hybrid mode a migrated task must not generate shared-memory
	// coherence traffic for its descriptor: count protocol messages for a
	// pure fork/steal workload and compare with SM mode.
	traffic := func(mode Mode) int64 {
		rt := newRT(4, mode)
		rt.Run(func(tc *TC) uint64 {
			fs := make([]*Future, 32)
			for i := range fs {
				fs[i] = tc.Fork(func(c *TC) uint64 {
					c.Elapse(2000)
					return 1
				})
			}
			var s uint64
			for _, f := range fs {
				s += f.Touch(tc)
			}
			return s
		})
		return rt.M.St.Global.Get(stats.ProtoMsgs)
	}
	sm := traffic(ModeSharedMemory)
	hy := traffic(ModeHybrid)
	t.Logf("coherence protocol messages: SM=%d hybrid=%d", sm, hy)
	if hy*2 > sm {
		t.Fatalf("hybrid scheduler generated too much coherence traffic: %d vs %d", hy, sm)
	}
}

func TestRunWithZeroWorkParallelism(t *testing.T) {
	// Idle nodes must terminate cleanly when the root never forks.
	bothModes(t, func(t *testing.T, mode Mode) {
		rt := newRT(16, mode)
		v, _ := rt.Run(func(tc *TC) uint64 {
			tc.Elapse(10000)
			return 5
		})
		if v != 5 {
			t.Fatalf("result = %d", v)
		}
	})
}

func TestCallInline(t *testing.T) {
	rt := newRT(2, ModeHybrid)
	v, _ := rt.Run(func(tc *TC) uint64 {
		return tc.Call(func(c *TC) uint64 {
			c.Elapse(10)
			return 21
		}) * 2
	})
	if v != 42 {
		t.Fatalf("inline call = %d, want 42", v)
	}
}

func TestInvokeManyTargets(t *testing.T) {
	// Invoked tasks land on their target's queue; an idle peer may still
	// steal one before the target dispatches it (they are ordinary tasks
	// once queued), so the assertion is conservation — every task runs
	// exactly once and resolves with the id of whichever node ran it.
	bothModes(t, func(t *testing.T, mode Mode) {
		const nodes = 8
		rt := newRT(nodes, mode)
		ran := make([]int, nodes)
		v, _ := rt.Run(func(tc *TC) uint64 {
			fs := make([]*Future, nodes-1)
			for dst := 1; dst < nodes; dst++ {
				f := rt.NewFuture(tc.ID())
				fs[dst-1] = f
				task := rt.NewInvokeTask(func(c *TC) {
					ran[c.ID()]++
					f.Resolve(c, uint64(c.ID()))
				})
				rt.Invoke(tc.P, dst, task)
			}
			var sum uint64
			for _, f := range fs {
				sum += f.Touch(tc)
			}
			return sum
		})
		total, idSum := 0, uint64(0)
		for id, n := range ran {
			total += n
			idSum += uint64(id) * uint64(n)
		}
		if total != nodes-1 {
			t.Fatalf("%v: %d tasks ran, want %d", mode, total, nodes-1)
		}
		if v != idSum {
			t.Fatalf("%v: futures sum %d != runner-id sum %d", mode, v, idSum)
		}
	})
}

func TestStolenCyclesChargedToVictim(t *testing.T) {
	// A node bombarded with messages must record stolen cycles.
	rt := newRT(2, ModeHybrid)
	rt.M.Spawn(0, 0, "sender", func(p *machine.Proc) {
		for i := 0; i < 10; i++ {
			task := rt.NewInvokeTask(func(c *TC) {})
			rt.Invoke(p, 1, task)
			p.Elapse(100)
		}
	})
	rt.M.Spawn(1, 0, "victim", func(p *machine.Proc) {
		for i := 0; i < 20; i++ {
			p.Elapse(100)
			p.Flush()
		}
	})
	rt.M.Run()
	if rt.M.St.Node[1].Get(stats.IntStolenCycles) == 0 {
		t.Fatal("no stolen cycles recorded on the bombarded node")
	}
}

// wantBackoff is the idle loop's one backoff schedule: idleBackoff doubled
// per fruitless steal round, capped at 32 times it.
var wantBackoff = []uint64{50, 100, 200, 400, 800, 1600, 1600, 1600}

// backoffRounds drives node 1 of a fresh 2-node runtime as its scheduler
// through two rounds of fruitless steals, with a dispatch between them that
// must restart the schedule, and checks the backoff fruitless measures for
// each steal.
func backoffRounds(t *testing.T, rt *RT, fruitless func(p *machine.Proc) uint64) {
	t.Helper()
	c := rt.cores[1]
	rt.M.Spawn(1, 0, "sched", func(p *machine.Proc) {
		c.schedProc = p
		for round := 0; round < 2; round++ {
			for k, want := range wantBackoff {
				if got := fruitless(p); got != want {
					t.Errorf("round %d, fruitless steal %d: backoff %d cycles, want %d", round, k, got, want)
				}
			}
			c.dispatch(p, queueItem{task: rt.newTask(func(*TC) {})})
		}
	})
	rt.M.Run()
}

// An SM core spends its backoff behind the probe gate: after a fruitless
// sweep it polls its own queues once per idleBackoff cycles until the gate
// opens, so the polls up to the next sweep count the backoff.
func TestBackoffSMProbeGate(t *testing.T) {
	rt := newRT(2, ModeSharedMemory)
	c := rt.cores[1]
	sweep := func(p *machine.Proc) (calls uint64) {
		for a := rt.M.St.Node[1].Get(stats.StealAttempts); rt.M.St.Node[1].Get(stats.StealAttempts) == a; calls++ {
			c.stealSM(p)
		}
		return calls
	}
	backoffRounds(t, rt, func(p *machine.Proc) uint64 {
		if c.idleFails == 0 {
			sweep(p) // the first fruitless sweep since boot or the dispatch
		}
		return sweep(p) * idleBackoff
	})
}

// A hybrid core spends its backoff in a timed park that starts when the
// victim's no-task reply lands and ends when the backoff runs out. Node 1's
// stepped scheduler runs alone against node 0, whose handlers decline
// every steal; a task invoked on node 1 midway is dispatched and restarts
// the schedule. The scheduler's BlockNote sees every park of its chain.
func TestBackoffHybridTimedPark(t *testing.T) {
	rt := newRT(2, ModeHybrid)
	buf := rt.M.EnableTrace(4096)
	c := rt.cores[1]
	c.boot()
	type park struct{ at, d uint64 }
	var parks []park
	c.schedProc.Ctx.BlockNote = func(parked, woke uint64) { parks = append(parks, park{parked, woke - parked}) }
	const roundCycles = 12000
	rt.M.Spawn(0, roundCycles, "invoker", func(p *machine.Proc) {
		rt.Invoke(p, 1, rt.NewInvokeTask(func(*TC) {}))
	})
	rt.M.Eng.At(2*roundCycles, rt.finish)
	rt.M.Run()

	// A backoff park starts when a no-task reply lands; a dispatch starts
	// a new round.
	replies := map[uint64]bool{}
	var dispatches []uint64
	for _, e := range buf.Events() {
		switch {
		case e.Node == 1 && e.Kind == trace.KMsgRecv && e.Arg == msgNoTask:
			replies[e.At] = true
		case e.Node == 1 && e.Kind == trace.KDispatch:
			dispatches = append(dispatches, e.At)
		}
	}
	if len(dispatches) != 1 {
		t.Fatalf("%d dispatches on node 1, want 1", len(dispatches))
	}
	rounds := make([][]uint64, 2)
	for _, pk := range parks {
		if replies[pk.at] {
			r := 0
			if pk.at > dispatches[0] {
				r = 1
			}
			rounds[r] = append(rounds[r], pk.d)
		}
	}
	for r, got := range rounds {
		if len(got) <= len(wantBackoff) {
			t.Fatalf("round %d: %d backoffs %v, want more than %d", r, len(got), got, len(wantBackoff))
		}
		for k, d := range got {
			want := wantBackoff[len(wantBackoff)-1]
			if k < len(wantBackoff) {
				want = wantBackoff[k]
			}
			// The last park of a round is cut short by the invocation or
			// by the runtime's end.
			if d != want && (k < len(got)-1 || d > want) {
				t.Errorf("round %d, fruitless steal %d: backoff %d cycles, want %d", r, k, d, want)
			}
		}
	}
}
