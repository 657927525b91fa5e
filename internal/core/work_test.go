package core_test

import (
	"testing"

	"alewife/internal/apps"
	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/sim"
)

// The engine's work on fixed runs is a pure function of the run, so these
// counts are exact: a change that adds or removes one handoff anywhere on
// these paths fails here, and says by how much. Handoffs are the host cost
// the counts exist for: each is two coroutine switches. A flush that ends
// in a park (a miss, a dispatch, a suspension) runs its step inside the
// dispatch loop (Proc.FlushThen), the hybrid scheduler runs as a chain of
// such steps (hybridStep), and a thread's final flush ends it with a record
// instead of a resume (Thread.run). Before the last two, these five runs
// took 4,045, 1,806, 27,944, 16,978 and 850 handoffs, with the same
// events.
func TestEngineWorkCounts(t *testing.T) {
	grain := func(rt *core.RT) { apps.GrainParallel(rt, 6, 0) }
	aq := func(rt *core.RT) { apps.AQParallel(rt, 0.05) }
	// invoke is e2ebench's remote-invocation driver: node 0 invokes 5
	// threads on node 8 one at a time, and the other nodes' fruitless
	// steals take the hybrid scheduler through its steal request, its park
	// until the reply and its timed backoff park.
	invoke := func(rt *core.RT) {
		rt.Run(func(tc *core.TC) uint64 {
			var got uint64
			for i := 0; i < 5; i++ {
				f := rt.NewFuture(tc.ID())
				rt.Invoke(tc.P, rt.Cores()/2, rt.NewInvokeTask(func(c *core.TC) { f.Resolve(c, 1) }))
				got += f.Touch(tc)
				tc.Elapse(2000)
			}
			return got
		})
	}
	cases := []struct {
		name string
		mode core.Mode
		run  func(rt *core.RT)
		want sim.Work
	}{
		{"grain-d6/sm", core.ModeSharedMemory, grain,
			sim.Work{Events: 12668, Handoffs: 3996, SelfContinues: 81, Absorbed: 1789}},
		{"grain-d6/hybrid", core.ModeHybrid, grain,
			sim.Work{Events: 3714, Handoffs: 486, SelfContinues: 64, Absorbed: 1710}},
		{"aq-0.05/sm", core.ModeSharedMemory, aq,
			sim.Work{Events: 113730, Handoffs: 26950, SelfContinues: 3286, Absorbed: 19534}},
		{"aq-0.05/hybrid", core.ModeHybrid, aq,
			sim.Work{Events: 44561, Handoffs: 8320, SelfContinues: 1576, Absorbed: 16430}},
		{"invoke-5/hybrid", core.ModeHybrid, invoke,
			sim.Work{Events: 1670, Handoffs: 47, SelfContinues: 36, Absorbed: 1018}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := core.NewDefault(machine.New(machine.DefaultConfig(16)), tc.mode)
			tc.run(rt)
			if got := rt.M.Eng.Work(); got != tc.want {
				t.Errorf("engine work %+v, want %+v", got, tc.want)
			}
		})
	}
}
