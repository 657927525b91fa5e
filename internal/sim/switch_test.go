package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// Context bodies are coroutines resumed by the Run goroutine, and parked
// contexts run the dispatch loop themselves. These tests pin what that must
// preserve: panic propagation to the Run caller, the RunLimit budget applied
// by whichever loop dispatches (including a context's own loop consuming its
// own wake with no switch), finished bodies releasing their goroutine and
// closure, and the amortized pruning of the finished-context roster.

func TestContextPanicPropagatesToRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bystander", 0, func(c *Context) { c.Block() })
	e.Spawn("bomb", 0, func(c *Context) {
		c.Sleep(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("context panic did not reach Run")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "context bomb panicked: boom") {
			t.Fatalf("panic payload %v, want context bomb framing", r)
		}
		if !strings.Contains(msg, "context stack") {
			t.Fatalf("panic missing context stack: %v", r)
		}
	}()
	e.Run()
}

// A context whose wake was found by another context's dispatch loop (not by
// the driver's) panicking must still re-raise from Run.
func TestPanicAfterContextToContextHandoff(t *testing.T) {
	e := NewEngine()
	var target *Context
	target = e.Spawn("victim", 0, func(c *Context) {
		c.Block()
		panic("woken then boom")
	})
	e.Spawn("waker", 0, func(c *Context) {
		c.Sleep(3)
		target.Unblock()
		// Finishing here hands the dispatch of victim's wake to the driver.
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "victim panicked") {
			t.Fatalf("panic = %v, want victim framing", r)
		}
	}()
	e.Run()
}

// A callback that panics in the dispatch right after a context finishes
// must surface from Run, not crash the process from another goroutine.
func TestCallbackPanicOnFinishingContext(t *testing.T) {
	e := NewEngine()
	e.Spawn("finisher", 0, func(c *Context) { c.Sleep(1) })
	callAt(e, 5, func() { panic("event boom") })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "event boom") {
			t.Fatalf("panic = %v, want event boom", r)
		}
	}()
	e.Run()
}

// After a panic aborted a run, the engine must reject reuse... it does not:
// it remains resumable like after Halt. What must hold is that the recorded
// panic does not leak into the next run.
func TestPanicDoesNotLeakIntoNextRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", 0, func(c *Context) { panic("once") })
	func() {
		defer func() { recover() }()
		e.Run()
	}()
	ran := false
	callAt(e, e.Now()+1, func() { ran = true })
	e.Run() // must not re-raise
	if !ran {
		t.Fatal("engine dead after recovered panic")
	}
}

// RunLimit's event budget must count the self-wakes a sleeping context's
// own dispatch loop (advance(self)) consumes inline, with no switch, or a
// compute loop would run unbounded inside a bounded fuzzer step.
func TestRunLimitCountsSoloWakes(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("solo", 0, func(c *Context) {
		for i := 0; i < 10; i++ {
			c.Sleep(1)
			steps++
		}
	})
	// Budget 5: the spawn wake plus four self-consumed sleep wakes.
	if e.RunLimit(5) {
		t.Fatal("RunLimit reported drained with work remaining")
	}
	if steps >= 10 {
		t.Fatalf("budget did not bound the self-wakes: %d steps", steps)
	}
	mid := steps
	if !e.RunLimit(1000) {
		t.Fatal("second RunLimit did not drain")
	}
	if steps != 10 || steps == mid {
		t.Fatalf("resume broken: %d steps (was %d)", steps, mid)
	}
}

// An event scheduled for the same cycle before a context sleeps must win the
// (at, seq) race over the later-armed wake: advance(self) consumes the
// context's own wake inline only when that wake is the queue head, so here
// the event fires first.
func TestSoloFastPathYieldsToSameTimeEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("ctx", 0, func(c *Context) {
		callAt(e, c.Now()+1, func() { order = append(order, "event") })
		c.Sleep(1)
		order = append(order, "ctx")
	})
	e.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "ctx" {
		t.Fatalf("order %v, want [event ctx]", order)
	}
}

// Finished contexts must be pruned from the diagnostics roster as the run
// proceeds, not only when Stuck happens to be called: a long run spawning
// short-lived contexts keeps the roster proportional to the live count.
func TestFinishedContextsPruned(t *testing.T) {
	e := NewEngine()
	const spawns = 10_000
	e.Spawn("driver", 0, func(c *Context) {
		for i := 0; i < spawns; i++ {
			e.Spawn("worker", c.Now(), func(w *Context) { w.Sleep(1) })
			c.Sleep(2)
		}
	})
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("%d contexts still live", e.Live())
	}
	if n := len(e.ctxs); n > 64 {
		t.Fatalf("ctxs roster grew to %d entries after %d spawn/finish cycles, want bounded", n, spawns)
	}
}

// Stuck must still report live contexts correctly after amortized pruning
// has compacted the roster mid-run.
func TestStuckAfterPruning(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.Spawn("short", 0, func(c *Context) { c.Sleep(1) })
	}
	e.Spawn("parked", 0, func(c *Context) { c.Block() })
	e.Run()
	stuck := e.Stuck()
	if len(stuck) != 1 || stuck[0] != "ctx(parked,blocked)" {
		t.Fatalf("stuck = %v, want the one parked context", stuck)
	}
}

// A context blocked with BlockNote must report the park and wake times even
// when its wake is found by another context's dispatch loop.
func TestBlockNoteAcrossHandoff(t *testing.T) {
	e := NewEngine()
	var parked, woke Time
	var target *Context
	target = e.Spawn("noted", 0, func(c *Context) {
		c.BlockNote = func(p, w Time) { parked, woke = p, w }
		c.Sleep(5)
		c.Block()
	})
	e.Spawn("waker", 0, func(c *Context) {
		c.Sleep(30)
		target.Unblock()
	})
	e.Run()
	if parked != 5 || woke != 30 {
		t.Fatalf("BlockNote(%d, %d), want (5, 30)", parked, woke)
	}
}

// settledGoroutines returns the goroutine count once it stops exceeding
// want, giving exiting goroutines a bounded number of scheduler turns.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// Every finished body must release its goroutine, however the run that saw
// it finish was stopped and however the body ended.
func TestFinishedContextsLeaveNoGoroutines(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"after-halt-stop", func(t *testing.T, e *Engine) {
			e.Spawn("sleeper", 0, func(c *Context) { c.Sleep(100) })
			callAt(e, 50, e.Halt)
			e.Run()
			if e.Now() != 50 || e.Live() != 1 {
				t.Fatalf("Halt at 50 left clock %d and %d live contexts, want 50 and the sleeper", e.Now(), e.Live())
			}
			e.Run()
		}},
		{"after-runlimit-stop", func(t *testing.T, e *Engine) {
			e.Spawn("stepper", 0, func(c *Context) {
				for i := 0; i < 10; i++ {
					c.Sleep(1)
				}
			})
			if e.RunLimit(3) {
				t.Fatal("RunLimit(3) drained a 10-step context")
			}
			e.RunLimit(1000)
		}},
		{"body-panic", func(t *testing.T, e *Engine) {
			e.Spawn("later", 0, func(c *Context) { c.Sleep(10) })
			e.Spawn("bomb", 0, func(c *Context) {
				c.Sleep(5)
				panic("boom")
			})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("body panic did not reach Run")
					}
				}()
				e.Run()
			}()
			e.Run()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			tc.run(t, e)
			if e.Live() != 0 {
				t.Fatalf("%d contexts still live", e.Live())
			}
			if n := settledGoroutines(base); n != base {
				t.Fatalf("%d goroutines after a drained run, want %d", n, base)
			}
		})
	}
}

// A finished context must not pin its body closure (nor what the body
// captured) while the Engine and the Context themselves are still reachable
// — not even mid-run, while the body's coroutine waits idle for reuse, and
// not after Respawn gave the context a second life that finished too.
func TestFinishedContextReleasesBody(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		name := "spawn"
		if reuse {
			name = "respawn"
		}
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			var freed atomic.Int32
			body := func() func(*Context) {
				payload := new([64]uint64)
				runtime.SetFinalizer(payload, func(*[64]uint64) { freed.Add(1) })
				return func(c *Context) {
					c.Sleep(1)
					payload[0]++
				}
			}
			want := int32(1)
			c := e.Spawn("holder", 0, body())
			if reuse {
				want = 2
				e.Spawn("respawner", 0, func(r *Context) {
					r.Sleep(5) // the holder finished at cycle 1
					e.Respawn(c, "holder", 0, r.Now(), body())
				})
			}
			awaitFreed := func() bool {
				for i := 0; i < 100 && freed.Load() < want; i++ {
					runtime.GC()
					runtime.Gosched()
				}
				return freed.Load() == want
			}
			var midRun bool
			e.Spawn("watcher", 0, func(w *Context) {
				w.Sleep(10) // every life of the holder has finished
				midRun = awaitFreed()
			})
			e.Run()
			if !midRun {
				t.Fatalf("finished context pinned its bodies' captures during the run: %d of %d freed", freed.Load(), want)
			}
			runtime.KeepAlive(e)
			runtime.KeepAlive(c)
		})
	}
}

// A context reused by Respawn keeps counting generations, so a wake armed
// in its previous life cannot resume the new body; and the deadlock roster
// lists the reused context once.
func TestRespawnIgnoresStaleWake(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", 0, func(c *Context) { c.Sleep(10) })
	var resumed bool
	e.Spawn("b", 0, func(c *Context) {
		c.Sleep(5)
		a.UnblockAt(100) // armed while a sleeps; stale once a wakes at 10
		c.Sleep(15)
		if !a.Done() {
			t.Fatal("a has not finished by cycle 20")
		}
		e.Respawn(a, "a", 0, c.Now(), func(c *Context) {
			c.Block()
			resumed = true
		})
	})
	e.Run()
	if resumed {
		t.Fatalf("a wake armed in the context's previous life resumed its new body at cycle %d", e.Now())
	}
	if stuck := e.Stuck(); len(stuck) != 1 || stuck[0] != "ctx(a,blocked)" {
		t.Fatalf("stuck = %v, want the reused context once", stuck)
	}
}

// Respawn lists a context on the deadlock roster once, whether or not the
// roster pruned it between its lives.
func TestRespawnListsContextOnce(t *testing.T) {
	for _, pruned := range []bool{false, true} {
		e := NewEngine()
		a := e.Spawn("a", 0, func(c *Context) {})
		e.Spawn("b", 0, func(c *Context) {
			c.Sleep(1)
			if pruned {
				e.Stuck()
			}
			e.Respawn(a, "a", 0, c.Now(), func(c *Context) { c.Block() })
		})
		e.Run()
		if n := e.Live(); n != 1 {
			t.Fatalf("pruned=%v: %d live contexts, want 1", pruned, n)
		}
		if stuck := e.Stuck(); len(stuck) != 1 || stuck[0] != "ctx(a,blocked)" {
			t.Fatalf("pruned=%v: stuck = %v, want the reused context once", pruned, stuck)
		}
	}
}

// Respawn of a context whose body is still running is a bug in the caller.
func TestRespawnOfLiveContextPanics(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", 0, func(c *Context) { c.Sleep(10) })
	e.Spawn("b", 0, func(c *Context) {
		defer func() {
			if recover() == nil {
				t.Error("respawn of a live context did not panic")
			}
		}()
		e.Respawn(a, "a", 0, c.Now(), func(*Context) {})
	})
	e.Run()
}

// A context prints its label, numbered by its id and prefixed with its
// node when it has them; Respawn replaces all three.
func TestContextNameParts(t *testing.T) {
	e := NewEngine()
	c := e.Respawn(nil, "thr", 1234, 0, func(*Context) {})
	if got := c.Name(); got != "thr1234" {
		t.Fatalf("Name() = %q, want thr1234", got)
	}
	c.Node = 3
	if got := c.String(); got != "ctx(n3:thr1234,runnable)" {
		t.Fatalf("String() = %q, want ctx(n3:thr1234,runnable)", got)
	}
	e.Run()
	e.Respawn(c, "sched", 0, e.Now(), func(*Context) {})
	if got := c.Name(); got != "sched" {
		t.Fatalf("reused Name() = %q, want sched", got)
	}
	e.Run()
}
