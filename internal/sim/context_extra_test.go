package sim

import (
	"testing"
	"testing/quick"
)

func TestSpawnFromContext(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", 0, func(c *Context) {
		c.Sleep(10)
		e.Spawn("child", c.Now()+5, func(cc *Context) {
			cc.Sleep(1)
			childAt = cc.Now()
		})
		c.Sleep(100)
	})
	e.Run()
	if childAt != 16 {
		t.Fatalf("child finished at %d, want 16", childAt)
	}
	if e.Live() != 0 {
		t.Fatal("contexts leaked")
	}
}

func TestSpawnFromEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	callAt(e, 50, func() {
		e.Spawn("late", e.Now(), func(c *Context) {
			c.Sleep(7)
			ran = true
		})
	})
	e.Run()
	if !ran || e.Now() != 57 {
		t.Fatalf("late spawn: ran=%v now=%d", ran, e.Now())
	}
}

func TestChainedGates(t *testing.T) {
	// A pipeline of gates, each stage fired by the previous stage's waiter.
	e := NewEngine()
	const stages = 10
	gates := make([]*Gate, stages)
	for i := range gates {
		gates[i] = &Gate{}
	}
	var finishedAt Time
	for i := 0; i < stages; i++ {
		i := i
		e.Spawn("stage", 0, func(c *Context) {
			if i > 0 {
				gates[i-1].Wait(c)
			}
			c.Sleep(10)
			gates[i].Fire()
			if i == stages-1 {
				finishedAt = c.Now()
			}
		})
	}
	e.Run()
	if finishedAt != stages*10 {
		t.Fatalf("pipeline finished at %d, want %d", finishedAt, stages*10)
	}
}

func TestUnblockAtFuture(t *testing.T) {
	e := NewEngine()
	var woke Time
	target := e.Spawn("t", 0, func(c *Context) {
		c.Block()
		woke = c.Now()
	})
	e.Spawn("w", 0, func(c *Context) {
		target.UnblockAt(500)
	})
	e.Run()
	if woke != 500 {
		t.Fatalf("woke at %d, want 500", woke)
	}
}

func TestUnblockFinishedPanics(t *testing.T) {
	e := NewEngine()
	var target *Context
	target = e.Spawn("t", 0, func(c *Context) {})
	caught := false
	e.Spawn("w", 10, func(c *Context) {
		defer func() {
			if recover() != nil {
				caught = true
			}
		}()
		target.Unblock()
	})
	e.Run()
	if !caught {
		t.Fatal("unblocking a finished context did not panic")
	}
}

func TestContextString(t *testing.T) {
	e := NewEngine()
	c := e.Spawn("x", 0, func(c *Context) { c.Block() })
	e.Spawn("w", 5, func(cc *Context) {
		if got := c.String(); got != "ctx(x,blocked)" {
			t.Errorf("String() = %q", got)
		}
		c.Unblock()
	})
	e.Run()
	if got := c.String(); got != "ctx(x,done)" {
		t.Errorf("final String() = %q", got)
	}
	if c.Name() != "x" || !c.Done() {
		t.Error("accessors wrong")
	}
}

func TestEngineAccessorsFromContext(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", 3, func(c *Context) {
		if c.Engine() != e {
			t.Error("Engine() wrong")
		}
		if c.Now() != 3 {
			t.Errorf("start time %d, want 3", c.Now())
		}
	})
	e.Run()
}

func TestHaltLeavesContextsResumable(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("p", 0, func(c *Context) {
		for i := 0; i < 5; i++ {
			c.Sleep(10)
			steps++
		}
	})
	callAt(e, 25, func() { e.Halt() })
	e.Run()
	if steps >= 5 {
		t.Fatal("halt did not stop mid-run")
	}
	e.Run() // resume
	if steps != 5 {
		t.Fatalf("resume incomplete: %d steps", steps)
	}
}

// Property: N contexts pinging through a shared gate chain always finish,
// regardless of spawn times.
func TestPropertyGateChainTerminates(t *testing.T) {
	f := func(starts []uint8) bool {
		if len(starts) == 0 || len(starts) > 20 {
			return true
		}
		e := NewEngine()
		gates := make([]*Gate, len(starts)+1)
		for i := range gates {
			gates[i] = &Gate{}
		}
		gates[0].Fire()
		done := 0
		for i, s := range starts {
			i := i
			e.Spawn("p", Time(s), func(c *Context) {
				gates[i].Wait(c)
				c.Sleep(uint64(s%5) + 1)
				gates[i+1].Fire()
				done++
			})
		}
		e.Run()
		return done == len(starts) && e.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStuckReportsLiveContexts(t *testing.T) {
	e := NewEngine()
	e.Spawn("finisher", 0, func(c *Context) { c.Sleep(5) })
	e.Spawn("stuck-one", 0, func(c *Context) { c.Block() })
	e.Run()
	stuck := e.Stuck()
	if len(stuck) != 1 {
		t.Fatalf("stuck = %v, want one entry", stuck)
	}
	if stuck[0] != "ctx(stuck-one,blocked)" {
		t.Fatalf("stuck[0] = %q", stuck[0])
	}
}
