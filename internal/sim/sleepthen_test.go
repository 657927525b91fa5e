package sim

import (
	"fmt"
	"strings"
	"testing"
)

// stepHarness runs one SleepThen scenario and logs what it observes:
// callbacks, sink fires, steps, context resumes and BlockNote pairs, each
// with its cycle. sleepThen is the form under test: SleepThen itself, or
// the two-park form it must be equivalent to.
type stepHarness struct {
	e         *Engine
	log       []string
	sleepThen func(c *Context, d uint64, w AtWake)
}

func (h *stepHarness) rec(format string, args ...interface{}) {
	h.log = append(h.log, fmt.Sprintf(format, args...)+fmt.Sprintf("@%d", h.e.Now()))
}

// spawn starts a context whose body logs each of its parks as BlockNote
// reports it.
func (h *stepHarness) spawn(name string, at Time, body func(c *Context)) *Context {
	return h.e.Spawn(name, at, func(c *Context) {
		c.BlockNote = func(parked, woke Time) { h.rec("note %s %d-%d", name, parked, woke) }
		body(c)
	})
}

// testStep is an AtWake step that logs its run and then does what park
// says: nil resumes the context at once, otherwise park arms the wait and
// reports whether the context stays parked.
type testStep struct {
	h    *stepHarness
	name string
	park func(c *Context) bool
}

func (s *testStep) AtWake(c *Context) bool {
	s.h.rec("step %s", s.name)
	return s.park == nil || !s.park(c)
}

// gateSink fires its gate as a pooled sink event.
type gateSink struct {
	h *stepHarness
	g *Gate
}

func (s *gateSink) Fire(op uint32, _, _ uint64) {
	s.h.rec("sink %d", op)
	s.g.Fire()
}

// parkOn returns a step action that parks the context on g.
func parkOn(g *Gate) func(c *Context) bool { return g.Park }

// The scenarios of the SleepThen equivalence table.
var stepScenarios = []struct {
	name string
	run  func(h *stepHarness)
	// absorbs reports that the fused form absorbs at least one wake.
	absorbs bool
}{
	{"resume-at-once", func(h *stepHarness) {
		h.spawn("a", 0, func(c *Context) {
			for i := 0; i < 3; i++ {
				h.sleepThen(c, 10, &testStep{h: h, name: "a"})
				h.rec("resume a")
			}
		})
		h.spawn("b", 0, func(c *Context) {
			for i := 0; i < 4; i++ {
				c.Sleep(7)
				h.rec("resume b")
			}
		})
		h.e.At(10, func() { h.rec("cb") })
	}, false},
	{"park-on-gate-fired-by-sink", func(h *stepHarness) {
		g := &Gate{}
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 10, &testStep{h: h, name: "a", park: parkOn(g)})
			h.rec("resume a")
			c.Sleep(3)
			h.rec("resume a")
		})
		h.spawn("b", 0, func(c *Context) {
			c.Sleep(20)
			h.rec("resume b")
			h.e.AtSink(c.Now()+30, &gateSink{h: h, g: g}, 7, 0, 0)
			c.Sleep(30)
			h.rec("resume b")
		})
	}, true},
	{"park-on-own-timer", func(h *stepHarness) {
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 4, &testStep{h: h, name: "a", park: func(c *Context) bool {
				c.UnblockAt(c.Now() + 6)
				return true
			}})
			h.rec("resume a")
		})
		h.e.At(10, func() { h.rec("cb") })
	}, true},
	{"unblock-cuts-sleep-short", func(h *stepHarness) {
		g := &Gate{}
		var a, b *Context
		a = h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 100, &testStep{h: h, name: "a", park: parkOn(g)})
			h.rec("resume a")
			c.Sleep(200)
			h.rec("resume a")
		})
		b = h.spawn("b", 0, func(c *Context) {
			h.sleepThen(c, 100, &testStep{h: h, name: "b"})
			h.rec("resume b")
		})
		h.spawn("u", 0, func(c *Context) {
			c.Sleep(10)
			a.UnblockAt(20)
			b.UnblockAt(30)
			h.rec("resume u")
		})
		// The gate fires after the sleep's own wake at 100, which the
		// early wake made stale: it must not resume a.
		h.e.At(150, func() { h.rec("cb"); g.Fire() })
	}, true},
	{"park-on-fired-gate", func(h *stepHarness) {
		g := &Gate{}
		g.Fire()
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 5, &testStep{h: h, name: "a", park: parkOn(g)})
			h.rec("resume a")
		})
	}, false},
	{"same-cycle-sleepers", sameCycleScript, true},
	{"chooser-picks-last", func(h *stepHarness) {
		h.e.SetChooser(pickFn(func(_ Time, cands []Choice) int { return len(cands) - 1 }))
		sameCycleScript(h)
	}, true},
	{"runlimit-between-step-and-fill", func(h *stepHarness) {
		g := &Gate{}
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 10, &testStep{h: h, name: "a", park: parkOn(g)})
			h.rec("resume a")
		})
		h.e.AtSink(50, &gateSink{h: h, g: g}, 1, 0, 0)
		// The start wake and the sleep's wake: the budget ends with the
		// step run and the fill still queued.
		drained := h.e.RunLimit(2)
		h.rec("runlimit drained=%v pending=%d", drained, h.e.Pending())
	}, true},
}

// sameCycleScript mixes eight same-cycle sleepers, half of them in
// SleepThen steps that alternately resume at once and park on a gate,
// with plain sleepers, gate waiters and callbacks, as the fairness golden
// does.
func sameCycleScript(h *stepHarness) {
	const rounds = 6
	gates := make([]*Gate, rounds+1)
	for i := range gates {
		gates[i] = &Gate{}
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%d", i)
		h.spawn(name, 0, func(c *Context) {
			for r := 1; r <= rounds; r++ {
				switch {
				case i%2 == 1:
					c.WaitUntil(Time(r * 10))
				case (i/2+r)%2 == 0:
					h.sleepThen(c, Time(r*10)-c.Now(), &testStep{h: h, name: name})
				default:
					h.sleepThen(c, Time(r*10)-c.Now(), &testStep{h: h, name: name, park: parkOn(gates[r])})
				}
				h.rec("resume %s", name)
			}
		})
	}
	for r := 1; r <= rounds; r++ {
		g := gates[r]
		h.e.At(Time(r*10+5), func() { h.rec("fire"); g.Fire() })
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		h.spawn(name, 0, func(c *Context) {
			gates[2].Wait(c)
			h.rec("resume %s", name)
			c.Sleep(5)
			h.rec("resume %s", name)
		})
	}
	for _, t := range []Time{10, 25, 30, 50} {
		h.e.At(t, func() { h.rec("cb") })
	}
}

// runStepScenario runs one scenario to the end in the given form and
// returns its log, the engine's counts and the contexts left live.
func runStepScenario(run func(*stepHarness), fused bool) (string, Work, int) {
	h := &stepHarness{e: NewEngine()}
	if fused {
		h.sleepThen = func(c *Context, d uint64, w AtWake) { c.SleepThen(d, w) }
	} else {
		h.sleepThen = func(c *Context, d uint64, w AtWake) {
			c.Sleep(d)
			if !w.AtWake(c) {
				c.Block()
			}
		}
	}
	run(h)
	h.e.Run()
	h.rec("end")
	return strings.Join(h.log, "\n"), h.e.Work(), h.e.Live()
}

// SleepThen is the two-park form with the resume before the step taken
// out: every scenario logs the same callbacks, sinks, steps, resumes and
// BlockNote pairs, in the same order at the same cycles, and dispatches
// the same events. The only difference is the count of wakes that
// resumed a context, by the number the fused form absorbed.
func TestSleepThenMatchesTwoParkForm(t *testing.T) {
	for _, sc := range stepScenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, wantWork, _ := runStepScenario(sc.run, false)
			got, gotWork, live := runStepScenario(sc.run, true)
			if got != want {
				t.Fatalf("SleepThen diverged from the two-park form\n--- SleepThen ---\n%s\n--- two-park ---\n%s", got, want)
			}
			if live != 0 {
				t.Errorf("%d contexts left parked at the end:\n%s", live, got)
			}
			if !strings.Contains(got, "note ") && sc.absorbs {
				t.Errorf("no BlockNote logged: the scenario parks no step")
			}
			if gotWork.Events != wantWork.Events {
				t.Errorf("SleepThen dispatched %d events, the two-park form %d", gotWork.Events, wantWork.Events)
			}
			if wantWork.Absorbed != 0 {
				t.Errorf("the two-park form absorbed %d wakes, want 0", wantWork.Absorbed)
			}
			resumed := func(w Work) uint64 { return w.Handoffs + w.SelfContinues }
			if resumed(gotWork)+gotWork.Absorbed != resumed(wantWork) {
				t.Errorf("wakes differ: SleepThen %+v, two-park %+v", gotWork, wantWork)
			}
			if (gotWork.Absorbed > 0) != sc.absorbs {
				t.Errorf("SleepThen absorbed %d wakes, want absorbing %v", gotWork.Absorbed, sc.absorbs)
			}
		})
	}
}
