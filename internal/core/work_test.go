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
// dispatch loop (Proc.FlushThen), and the wakes it absorbs were handoffs
// and self-continues before: 5,362, 2,161, 42,268 and 22,658 handoffs on
// these four runs, with the same events.
func TestEngineWorkCounts(t *testing.T) {
	grain := func(rt *core.RT) { apps.GrainParallel(rt, 6, 0) }
	aq := func(rt *core.RT) { apps.AQParallel(rt, 0.05) }
	cases := []struct {
		name string
		mode core.Mode
		run  func(rt *core.RT)
		want sim.Work
	}{
		{"grain-d6/sm", core.ModeSharedMemory, grain,
			sim.Work{Events: 12668, Handoffs: 4045, SelfContinues: 96, Absorbed: 1789}},
		{"grain-d6/hybrid", core.ModeHybrid, grain,
			sim.Work{Events: 3714, Handoffs: 1806, SelfContinues: 126, Absorbed: 392}},
		{"aq-0.05/sm", core.ModeSharedMemory, aq,
			sim.Work{Events: 113730, Handoffs: 27944, SelfContinues: 4054, Absorbed: 19534}},
		{"aq-0.05/hybrid", core.ModeHybrid, aq,
			sim.Work{Events: 44561, Handoffs: 16978, SelfContinues: 3573, Absorbed: 7537}},
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
