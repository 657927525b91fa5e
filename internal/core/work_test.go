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
// in a park (a miss, a dispatch, a suspension) is the first step of a
// chain whose next step runs inside the dispatch loop (Proc.StepFlush),
// the hybrid scheduler runs as a chain of such steps (hybridStep), and a
// thread's final flush ends it with a record instead of a resume
// (Thread.run). An access that waits is a chain of steps too, entered from
// a body with RunStep (Proc.Read and friends) or inside a step
// (Proc.StepRead and friends), and so are the shared-memory
// scheduler (smStep), its queue operations and spin locks (queueStep,
// lockStep) and a fork's task descriptor (descStep). Before those, these
// six runs took 3,996, 486, 26,950, 8,320, 4,862 and 47 handoffs, with the
// same events.
func TestEngineWorkCounts(t *testing.T) {
	grain := func(rt *core.RT) { apps.GrainParallel(rt, 6, 0) }
	aq := func(rt *core.RT) { apps.AQParallel(rt, 0.05) }
	// invoke is e2ebench's remote-invocation driver: node 0 invokes 5
	// threads on node 8 one at a time, and the other nodes' fruitless
	// steals take the hybrid scheduler through its steal request, its park
	// until the reply and its timed backoff park. On the SM runtime each
	// invocation writes a remote descriptor and pushes under node 8's
	// queue lock, and idle SM schedulers sweep their victims.
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
			sim.Work{Events: 12668, Handoffs: 422, SelfContinues: 143, Absorbed: 5301}},
		{"grain-d6/hybrid", core.ModeHybrid, grain,
			sim.Work{Events: 3714, Handoffs: 481, SelfContinues: 65, Absorbed: 1714}},
		{"aq-0.05/sm", core.ModeSharedMemory, aq,
			sim.Work{Events: 113730, Handoffs: 8500, SelfContinues: 1474, Absorbed: 39796}},
		{"aq-0.05/hybrid", core.ModeHybrid, aq,
			sim.Work{Events: 44561, Handoffs: 8310, SelfContinues: 1574, Absorbed: 16442}},
		{"invoke-5/sm", core.ModeSharedMemory, invoke,
			sim.Work{Events: 8659, Handoffs: 43, SelfContinues: 42, Absorbed: 5646}},
		{"invoke-5/hybrid", core.ModeHybrid, invoke,
			sim.Work{Events: 1670, Handoffs: 45, SelfContinues: 36, Absorbed: 1020}},
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
