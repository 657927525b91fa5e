package core_test

import (
	"testing"

	"alewife/internal/apps"
	"alewife/internal/core"
	"alewife/internal/machine"
)

// A finished run holds on to no task or thread: a task's id is released
// when a thread starts from it, a thread's when it finishes, so the
// closures, futures, processors and contexts they reach can be collected
// while the run goes on.
func TestFinishedTasksAndThreadsReleased(t *testing.T) {
	runs := []struct {
		name string
		run  func(rt *core.RT)
	}{
		{"aq", func(rt *core.RT) { apps.AQParallel(rt, 0.02) }},
		{"grain", func(rt *core.RT) { apps.GrainParallel(rt, 8, 0) }},
	}
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		for _, r := range runs {
			rt := core.NewDefault(machine.New(machine.DefaultConfig(16)), mode)
			r.run(rt)
			if tasks, threads := core.Registered(rt); tasks != 0 || threads != 0 {
				t.Errorf("%s/%v: %d tasks and %d threads still registered after the run", r.name, mode, tasks, threads)
			}
		}
	}
}
