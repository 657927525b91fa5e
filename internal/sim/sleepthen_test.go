package sim

import (
	"fmt"
	"strings"
	"testing"
)

// stepHarness runs one scenario of a sleep then a step and logs what it
// observes: callbacks, sink fires, steps, context resumes and BlockNote
// pairs, each with its cycle. sleepThen and runStep are the forms under
// test: RunStep, of the step itself or of a thenStep that sleeps before
// it, with chained steps, or the two-park form they must be equivalent
// to, where the context resumes at each step.
type stepHarness struct {
	e         *Engine
	log       []string
	sleepThen func(c *Context, d uint64, w *testStep)
	runStep   func(c *Context, w *testStep)
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
// reports whether the context stays parked. A step with a next link
// chains it: after the park it armed (ThenOnWake), at once when park found
// nothing to wait for, or, with no park, after sleeping then cycles (Then).
type testStep struct {
	h    *stepHarness
	name string
	park func(c *Context) bool
	then uint64
	next *testStep
}

func (s *testStep) AtWake(c *Context) bool {
	s.h.rec("step %s", s.name)
	switch {
	case s.next == nil:
		return s.park == nil || !s.park(c)
	case s.park == nil:
		c.Then(s.then, s.next)
		return false
	case s.park(c):
		c.ThenOnWake(s.next)
		return false
	}
	return s.next.AtWake(c)
}

// twoPark runs the chain from s as a context that resumes at every step
// would: a Block for each park, a Sleep for each chained sleep.
func (h *stepHarness) twoPark(c *Context, s *testStep) {
	for ; s != nil; s = s.next {
		h.rec("step %s", s.name)
		switch {
		case s.park != nil:
			if s.park(c) {
				c.Block()
			}
		case s.next != nil:
			c.Sleep(s.then)
		}
	}
}

// chain links steps into a chain and returns its first step.
func chain(steps ...*testStep) *testStep {
	for i := 0; i+1 < len(steps); i++ {
		steps[i].next = steps[i+1]
	}
	return steps[0]
}

// timedPark returns a step action that parks the context until d cycles
// from now.
func timedPark(d uint64) func(c *Context) bool {
	return func(c *Context) bool {
		c.UnblockAt(c.Now() + d)
		return true
	}
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

// The scenarios of the sleep-then-step equivalence table.
var stepScenarios = []struct {
	name string
	run  func(h *stepHarness)
	// absorbs reports that the fused form absorbs at least one wake, and
	// parks that a step parks the context, which BlockNote must log.
	absorbs, parks bool
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
		callAt(h.e, 10, func() { h.rec("cb") })
	}, false, false},
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
	}, true, true},
	{"park-on-own-timer", func(h *stepHarness) {
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 4, &testStep{h: h, name: "a", park: func(c *Context) bool {
				c.UnblockAt(c.Now() + 6)
				return true
			}})
			h.rec("resume a")
		})
		callAt(h.e, 10, func() { h.rec("cb") })
	}, true, true},
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
		callAt(h.e, 150, func() { h.rec("cb"); g.Fire() })
	}, true, true},
	{"park-on-fired-gate", func(h *stepHarness) {
		g := &Gate{}
		g.Fire()
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 5, &testStep{h: h, name: "a", park: parkOn(g)})
			h.rec("resume a")
		})
	}, false, false},
	{"same-cycle-sleepers", sameCycleScript, true, true},
	{"chooser-picks-last", func(h *stepHarness) {
		h.e.SetChooser(pickFn(func(_ Time, cands []Choice) int { return len(cands) - 1 }))
		sameCycleScript(h)
	}, true, true},
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
	}, true, true},
	{"chain-sleep-sleep", func(h *stepHarness) {
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 10, chain(
				&testStep{h: h, name: "a1", then: 5},
				&testStep{h: h, name: "a2", then: 7},
				&testStep{h: h, name: "a3"}))
			h.rec("resume a")
		})
		h.spawn("b", 0, func(c *Context) {
			for i := 0; i < 4; i++ {
				c.Sleep(6)
				h.rec("resume b")
			}
		})
		callAt(h.e, 15, func() { h.rec("cb") })
		callAt(h.e, 22, func() { h.rec("cb") })
	}, true, false},
	{"chain-sleep-park-sleep", func(h *stepHarness) {
		g := &Gate{}
		h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 10, chain(
				&testStep{h: h, name: "a1", then: 5},
				&testStep{h: h, name: "a2", park: parkOn(g)},
				&testStep{h: h, name: "a3", then: 4},
				&testStep{h: h, name: "a4"}))
			h.rec("resume a")
			c.Sleep(3)
			h.rec("resume a")
		})
		h.spawn("b", 0, func(c *Context) {
			c.Sleep(20)
			h.rec("resume b")
			h.e.AtSink(c.Now()+20, &gateSink{h: h, g: g}, 3, 0, 0)
			c.Sleep(30)
			h.rec("resume b")
		})
	}, true, true},
	{"chain-park-cut-short", func(h *stepHarness) {
		var a *Context
		a = h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 10, chain(
				&testStep{h: h, name: "a1", park: timedPark(100)},
				&testStep{h: h, name: "a2", then: 200},
				&testStep{h: h, name: "a3"}))
			h.rec("resume a")
		})
		// The Unblock at 40 cuts the timed park short; its own wake at
		// 110 is then stale and must not cut a2's sleep short.
		h.spawn("u", 0, func(c *Context) {
			c.Sleep(40)
			a.Unblock()
			h.rec("resume u")
		})
	}, true, true},
	{"chain-timed-park-second-wake-stale", func(h *stepHarness) {
		var a *Context
		a = h.spawn("a", 0, func(c *Context) {
			h.sleepThen(c, 10, chain(
				&testStep{h: h, name: "a1", park: timedPark(30)},
				&testStep{h: h, name: "a2", then: 100},
				&testStep{h: h, name: "a3"}))
			h.rec("resume a")
		})
		// A second wake armed during the timed park, due after it: the
		// timed wake at 40 runs a2, and this one is stale at 60.
		h.spawn("u", 0, func(c *Context) {
			c.Sleep(20)
			a.UnblockAt(60)
			h.rec("resume u")
		})
	}, true, true},
	{"runstep-chains", func(h *stepHarness) {
		g, fired := &Gate{}, &Gate{}
		fired.Fire()
		h.spawn("a", 0, func(c *Context) {
			c.Sleep(3)
			h.runStep(c, &testStep{h: h, name: "a0"})
			h.rec("resume a")
			h.runStep(c, &testStep{h: h, name: "a1", park: parkOn(g)})
			h.rec("resume a")
			h.runStep(c, chain(
				&testStep{h: h, name: "a2", park: parkOn(fired)},
				&testStep{h: h, name: "a3", then: 6},
				&testStep{h: h, name: "a4", park: timedPark(4)},
				&testStep{h: h, name: "a5"}))
			h.rec("resume a")
		})
		h.e.AtSink(20, &gateSink{h: h, g: g}, 5, 0, 0)
		callAt(h.e, 25, func() { h.rec("cb") })
	}, true, true},
}

// sameCycleScript mixes eight same-cycle sleepers, half of them in
// sleep-then-step chains that alternately resume at once and park on a gate,
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
		callAt(h.e, Time(r*10+5), func() { h.rec("fire"); g.Fire() })
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
		callAt(h.e, t, func() { h.rec("cb") })
	}
}

// runStepScenario runs one scenario to the end in the given form and
// returns its log, the engine's counts and the contexts left live.
func runStepScenario(run func(*stepHarness), fused bool) (string, Work, int) {
	h := &stepHarness{e: NewEngine()}
	if fused {
		h.sleepThen = func(c *Context, d uint64, w *testStep) { c.RunStep(&thenStep{d, w}) }
		h.runStep = func(c *Context, w *testStep) { c.RunStep(w) }
	} else {
		h.sleepThen = func(c *Context, d uint64, w *testStep) {
			c.Sleep(d)
			h.twoPark(c, w)
		}
		h.runStep = h.twoPark
	}
	run(h)
	h.e.Run()
	h.rec("end")
	return strings.Join(h.log, "\n"), h.e.Work(), h.e.Live()
}

// A sleep then a step, taken as a body's RunStep of a step that names it
// with Then, is the two-park form with the resume before the step taken
// out, and a chained step (Then, ThenOnWake) the form with the resume
// before each link taken out: every scenario logs the same callbacks,
// sinks, steps, resumes and BlockNote pairs, in the same order at the same
// cycles, and dispatches the same events. The only difference is the
// count of wakes that resumed a context, by the number the fused form
// absorbed.
func TestSleepThenMatchesTwoParkForm(t *testing.T) {
	for _, sc := range stepScenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, wantWork, _ := runStepScenario(sc.run, false)
			got, gotWork, live := runStepScenario(sc.run, true)
			if got != want {
				t.Fatalf("the step form diverged from the two-park form\n--- steps ---\n%s\n--- two-park ---\n%s", got, want)
			}
			if live != 0 {
				t.Errorf("%d contexts left parked at the end:\n%s", live, got)
			}
			if !strings.Contains(got, "note ") && sc.parks {
				t.Errorf("no BlockNote logged: the scenario parks no step")
			}
			if gotWork.Events != wantWork.Events {
				t.Errorf("the step form dispatched %d events, the two-park form %d", gotWork.Events, wantWork.Events)
			}
			if wantWork.Absorbed != 0 {
				t.Errorf("the two-park form absorbed %d wakes, want 0", wantWork.Absorbed)
			}
			resumed := func(w Work) uint64 { return w.Handoffs + w.SelfContinues }
			if resumed(gotWork)+gotWork.Absorbed != resumed(wantWork) {
				t.Errorf("wakes differ: steps %+v, two-park %+v", gotWork, wantWork)
			}
			if (gotWork.Absorbed > 0) != sc.absorbs {
				t.Errorf("the step form absorbed %d wakes, want absorbing %v", gotWork.Absorbed, sc.absorbs)
			}
		})
	}
}

// successorMisuse checks that naming a successor step for a context
// anywhere but inside its running step panics, naming the context: from
// the context's own body, and from another context's step.
func successorMisuse(t *testing.T, name string, then func(c *Context)) {
	t.Helper()
	runs := map[string]func(e *Engine){
		"own body": func(e *Engine) {
			e.Spawn("victim", 0, then)
		},
		"another step": func(e *Engine) {
			victim := e.Spawn("victim", 0, func(c *Context) { c.Sleep(100) })
			e.Spawn("other", 0, func(c *Context) {
				c.RunStep(&thenStep{5, stepFunc(func(*Context) bool {
					then(victim)
					return true
				})})
			})
		},
	}
	for site, build := range runs {
		t.Run(site, func(t *testing.T) {
			e := NewEngine()
			build(e)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "successor step for victim named outside its running step") {
					t.Errorf("%s from the %s: panic %q, want it to name the context", name, site, msg)
				}
			}()
			e.Run()
		})
	}
}

// stepFunc adapts a function to AtWake.
type stepFunc func(c *Context) bool

func (f stepFunc) AtWake(c *Context) bool { return f(c) }

// thenStep sleeps d cycles and names w as the step for the sleep's wake:
// how a body enters a chain that begins with a sleep.
type thenStep struct {
	d uint64
	w AtWake
}

func (s *thenStep) AtWake(c *Context) bool {
	c.Then(s.d, s.w)
	return false
}

func TestThenOutsideStepPanics(t *testing.T) {
	successorMisuse(t, "Then", func(c *Context) { c.Then(5, stepFunc(func(*Context) bool { return true })) })
}

func TestThenOnWakeOutsideStepPanics(t *testing.T) {
	successorMisuse(t, "ThenOnWake", func(c *Context) { c.ThenOnWake(stepFunc(func(*Context) bool { return true })) })
}

// A step that names a successor must leave the context parked: one that
// resumes it instead panics, naming the context, whether a wake ran it or
// RunStep did.
func TestStepResumingWithSuccessorPanics(t *testing.T) {
	bad := stepFunc(func(c *Context) bool {
		c.Then(5, stepFunc(func(*Context) bool { return true }))
		return true
	})
	for site, body := range map[string]func(c *Context){
		"wake":    func(c *Context) { c.RunStep(&thenStep{5, bad}) },
		"RunStep": func(c *Context) { c.RunStep(bad) },
	} {
		t.Run(site, func(t *testing.T) {
			e := NewEngine()
			e.Spawn("victim", 0, body)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "step of victim named a successor and resumed the context") {
					t.Errorf("panic %q, want it to name the context", msg)
				}
			}()
			e.Run()
		})
	}
}
