package bench

import (
	"io"

	"alewife/internal/core"
	"alewife/internal/sim"
)

func init() {
	register(Experiment{
		ID:             "invoke",
		Title:          "Remote thread invocation, Tinvoker/Tinvokee (Section 4.3, Figure 6)",
		Run:            runInvoke,
		LivelocksOnTwo: true,
	})
}

// invokeTimes measures Tinvoker (start of the operation until the invoking
// processor is free) and Tinvokee (start until the invoked thread begins
// running), inside the full scheduler, as the paper does.
func invokeTimes(cfg Config, nodes int, mode core.Mode) (tInvoker, tInvokee uint64) {
	const reps = 5
	rt := newRT(cfg, nodes, mode)
	var invoker, invokee [reps]uint64
	rt.Run(func(tc *core.TC) uint64 {
		dst := nodes / 2 // a mid-distance node
		for r := 0; r < reps; r++ {
			f := rt.NewFuture(tc.ID())
			var started sim.Time
			task := rt.NewInvokeTask(func(c *core.TC) {
				c.P.Flush()
				started = c.P.Ctx.Now()
				f.Resolve(c, 1)
			})
			tc.P.Flush()
			t0 := tc.P.Ctx.Now()
			rt.Invoke(tc.P, dst, task)
			tc.P.Flush()
			invoker[r] = tc.P.Ctx.Now() - t0
			f.Touch(tc)
			invokee[r] = started - t0
			tc.Elapse(2000) // let the remote scheduler settle back to idle
			tc.P.Flush()
		}
		return 0
	})
	// Steady state: skip the cold first rep, take the minimum of the rest
	// (idle-loop phase noise only adds latency).
	tInvoker, tInvokee = invoker[1], invokee[1]
	for r := 2; r < reps; r++ {
		if invoker[r] < tInvoker {
			tInvoker = invoker[r]
		}
		if invokee[r] < tInvokee {
			tInvokee = invokee[r]
		}
	}
	return tInvoker, tInvokee
}

func runInvoke(cfg Config, w io.Writer) {
	smKer, smKee := invokeTimes(cfg, cfg.Nodes, core.ModeSharedMemory)
	mpKer, mpKee := invokeTimes(cfg, cfg.Nodes, core.ModeHybrid)
	t := NewTable("invoke", "implementation", "Tinvoker", "Tinvokee", "paper_invoker", "paper_invokee")
	t.Add("shared-memory", smKer, smKee, 353, 805)
	t.Add("message-based", mpKer, mpKee, 17, 244)
	t.Note("Tinvoker ratio SM/MP: %.1f (paper: 20.8)   Tinvokee ratio: %.1f (paper: 3.3)",
		float64(smKer)/float64(mpKer), float64(smKee)/float64(mpKee))
	t.Emit(cfg, w)
}
