package sim

import (
	"testing"
	"testing/quick"
)

// fnSink adapts a closure to Sink: the tests' callback event.
type fnSink func()

func (f fnSink) Fire(uint32, uint64, uint64) { f() }

// callAt schedules fn as a sink event at t.
func callAt(e *Engine, t Time, fn func()) { e.AtSink(t, fnSink(fn), 0, 0, 0) }

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	callAt(e, 30, func() { order = append(order, 3) })
	callAt(e, 10, func() { order = append(order, 1) })
	callAt(e, 20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		callAt(e, 5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d]=%d", i, v)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var times []Time
	callAt(e, 10, func() {
		times = append(times, e.Now())
		callAt(e, e.Now()+5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	callAt(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		callAt(e, 5, func() {})
	})
	e.Run()
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	ran := 0
	callAt(e, 10, func() { ran++; e.Halt() })
	callAt(e, 20, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("Halt did not stop the loop: ran=%d", ran)
	}
	e.Run() // resumes after halt
	if ran != 2 {
		t.Fatalf("second Run did not drain: ran=%d", ran)
	}
}

func TestContextSleepInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", 0, func(c *Context) {
		trace = append(trace, "a0")
		c.Sleep(10)
		trace = append(trace, "a10")
		c.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Spawn("b", 0, func(c *Context) {
		trace = append(trace, "b0")
		c.Sleep(15)
		trace = append(trace, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestContextBlockUnblock(t *testing.T) {
	e := NewEngine()
	var c1 *Context
	woke := Time(0)
	c1 = e.Spawn("sleeper", 0, func(c *Context) {
		c.Block()
		woke = c.Now()
	})
	e.Spawn("waker", 0, func(c *Context) {
		c.Sleep(42)
		c1.Unblock()
	})
	e.Run()
	if woke != 42 {
		t.Fatalf("blocked context woke at %d, want 42", woke)
	}
	if e.Live() != 0 {
		t.Fatalf("live contexts remain: %d", e.Live())
	}
}

func TestStaleWakeDropped(t *testing.T) {
	// A context parked in Block is woken twice "simultaneously"; the second
	// wake must be dropped, and a subsequent Sleep must not be cut short by
	// the stale event.
	e := NewEngine()
	var target *Context
	var wokeAt []Time
	target = e.Spawn("t", 0, func(c *Context) {
		c.Block()
		wokeAt = append(wokeAt, c.Now())
		c.Sleep(100)
		wokeAt = append(wokeAt, c.Now())
	})
	e.Spawn("w", 0, func(c *Context) {
		c.Sleep(10)
		target.Unblock()
		target.Unblock() // stale duplicate
	})
	e.Run()
	if len(wokeAt) != 2 || wokeAt[0] != 10 || wokeAt[1] != 110 {
		t.Fatalf("wake times %v, want [10 110]", wokeAt)
	}
}

func TestGate(t *testing.T) {
	e := NewEngine()
	g := &Gate{}
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn("w", 0, func(c *Context) {
			g.Wait(c)
			woke = append(woke, c.Now())
		})
	}
	e.Spawn("firer", 0, func(c *Context) {
		c.Sleep(77)
		g.Fire()
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("only %d waiters woke", len(woke))
	}
	for _, w := range woke {
		if w != 77 {
			t.Fatalf("waiter woke at %d, want 77", w)
		}
	}
	// Waiting on a fired gate returns immediately.
	returned := false
	e.Spawn("late", e.Now(), func(c *Context) {
		g.Wait(c)
		returned = true
	})
	e.Run()
	if !returned {
		t.Fatal("wait on fired gate did not return")
	}
}

func TestGateDoubleFire(t *testing.T) {
	e := NewEngine()
	g := &Gate{}
	n := 0
	e.Spawn("w", 0, func(c *Context) {
		g.Wait(c)
		n++
	})
	callAt(e, 5, func() { g.Fire(); g.Fire() })
	e.Run()
	if n != 1 {
		t.Fatalf("waiter ran %d times", n)
	}
}

func TestWaitUntilPast(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("p", 0, func(c *Context) {
		c.Sleep(50)
		c.WaitUntil(10) // in the past: no time travel
		at = c.Now()
	})
	e.Run()
	if at != 50 {
		t.Fatalf("WaitUntil(past) moved clock to %d", at)
	}
}

func TestManyContextsDeterministic(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var out []Time
		for i := 0; i < 50; i++ {
			d := uint64(i%7 + 1)
			e.Spawn("c", Time(i%3), func(c *Context) {
				for k := 0; k < 5; k++ {
					c.Sleep(d)
				}
				out = append(out, c.Now())
			})
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("missing completions: %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion order at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any batch of (delay, duration) context programs the engine
// finishes with zero live contexts and clock equal to the max completion.
func TestPropertyAllContextsComplete(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		e := NewEngine()
		var max Time
		for _, s := range seeds {
			start := Time(s % 97)
			dur := uint64(s%31) + 1
			end := start + dur*3
			if end > max {
				max = end
			}
			e.Spawn("p", start, func(c *Context) {
				c.Sleep(dur)
				c.Sleep(dur)
				c.Sleep(dur)
			})
		}
		e.Run()
		return e.Live() == 0 && e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGateFiredAccessor(t *testing.T) {
	g := &Gate{}
	if g.Fired() {
		t.Fatal("fresh gate fired")
	}
	g.Fire()
	if !g.Fired() {
		t.Fatal("fired gate not fired")
	}
}
