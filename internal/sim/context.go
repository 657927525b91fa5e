//go:build go1.23

// iter is Go 1.23; the constraint lets this file use it while go.mod stays
// at go 1.22 (see the package comment).

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Context is a simulated sequential agent (a processor, a thread). Its body
// is a coroutine resumed by the Run goroutine: it runs only between a
// resume and the next call into WaitUntil/Sleep/Block, during which no
// other context or event runs. While parked, a context runs the dispatch
// loop (advance) itself and yields to the driver only when another context
// is due next or the run stops.
type Context struct {
	eng  *Engine
	name string
	// co runs the body. Once the body returns, co may serve another
	// context; a finished context never touches it again.
	co   *coroutine
	done bool
	// gen counts resumptions; wake events capture the generation at which
	// they were armed so a stale wake (context already resumed by another
	// path) is dropped instead of corrupting the park/resume protocol.
	gen uint64
	// blocked is informational: true while parked with no wake event queued.
	blocked bool

	// BlockNote, when non-nil, observes every Block on this context: it is
	// called with the park time and the wake time once the context resumes.
	// The metrics layer hangs cycle attribution off it — why the context
	// woke is known to the caller that parked, so the caller tags the wait
	// and this hook supplies the measured duration. Nil costs one branch.
	BlockNote func(parked, woke Time)

	// Node identifies the processor this context models, for Chooser
	// descriptors; -1 (the default) means the context belongs to no
	// particular node and its wakes are opaque to partial-order reduction.
	Node int32
}

// Name returns the context's debug name.
func (c *Context) Name() string { return c.name }

// Engine returns the owning engine.
func (c *Context) Engine() *Engine { return c.eng }

// Now returns the current simulation time.
func (c *Context) Now() Time { return c.eng.now }

// Done reports whether the context body has returned.
func (c *Context) Done() bool { return c.done }

// Spawn creates a context whose body starts running at time `at`. The body
// executes in simulation order; fn returning ends the context.
//
//alewife:engine-only
func (e *Engine) Spawn(name string, at Time, fn func(*Context)) *Context {
	c := &Context{eng: e, name: name, Node: -1}
	e.nlive++
	e.ctxs = append(e.ctxs, c)
	co := e.idleCoroutine()
	co.ctx, co.body = c, fn
	c.co = co
	e.atWake(at, c, 0) // the start event is an ordinary wake (gen 0)
	return c
}

// coroutine runs context bodies one after another. When a body returns, the
// coroutine parks on Engine.idle instead of exiting, and the next Spawn in
// the same run reuses it: the goroutine and iter.Pull's allocations are paid
// per coroutine, not per context. drive stops the idle ones when the run
// ends, so no goroutine outlives the contexts it served.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	ctx   *Context       // the body's context; nil while idle
	body  func(*Context) // nil while idle
}

// idleCoroutine returns a parked coroutine, starting one if none is idle.
func (e *Engine) idleCoroutine() *coroutine {
	if n := len(e.idle); n > 0 {
		co := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return co
	}
	co := &coroutine{}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		for {
			co.run(e)
			e.idle = append(e.idle, co)
			if !yield(struct{}{}) {
				return // stopped by drive at the end of a run
			}
		}
	})
	return co
}

// run executes the assigned body to completion. A panic from the body is
// recorded so the driver re-raises it from Run with the context's name and
// stack, where callers (and tests) can observe it.
func (co *coroutine) run(e *Engine) {
	c := co.ctx
	defer func() {
		if r := recover(); r != nil {
			e.ctxPanic = &panicValue{ctx: c.name, val: r, stack: string(debug.Stack())}
		}
		c.done = true
		co.ctx, co.body = nil, nil // an idle coroutine must not pin the body
		e.nlive--
		e.retire()
	}()
	co.body(c)
}

// parkAndDispatch parks the context: it runs the dispatch loop itself, and
// either its own wake comes up (continue inline, no switch) or it yields to
// the driver, which resumes whichever context is due next or ends the run.
func (c *Context) parkAndDispatch() {
	if !c.eng.advance(c) {
		c.co.yield(struct{}{})
	}
}

// wakeAt arms a wake event at absolute time t for the current park
// generation; the event is dropped if the context was resumed through
// another path in the meantime (the staleness check lives in
// Engine.advance, which fires wake records without a closure).
func (c *Context) wakeAt(t Time) {
	c.eng.atWake(t, c, c.gen)
}

// WaitUntil advances the context to absolute time t, letting all events and
// other contexts scheduled before t run. Waiting for the past is a no-op
// time-wise but still interleaves fairly with same-time events: the wake
// record takes its place in (at, seq) order like any other.
func (c *Context) WaitUntil(t Time) {
	e := c.eng
	if t < e.now {
		t = e.now
	}
	// Arm the wake record inline (atWake unrolled) so the solo-wake check
	// below can compare the queue head against it by pointer.
	e.seq++
	r := e.q.get()
	r.at, r.seq, r.ctx, r.gen = t, e.seq, c, c.gen
	e.q.push(r)
	// Solo-wake fast path: if our own wake is the next due event and the
	// run's bounds allow dispatching it now, consume it inline — advance
	// the clock and keep running with no switch. Dispatch order is
	// unchanged: the record was the exact next pop, so this is the same
	// transfer the loop would have performed, minus the park. Disabled
	// under a chooser: other events ready at the same cycle must be offered
	// as alternatives, so every dispatch has to go through the loop.
	if e.chooser == nil && !e.halted && !(e.bounded && t > e.bound) && !(e.budgeted && e.budget == 0) && e.q.peek() == r {
		if e.budgeted {
			e.budget--
		}
		e.q.next(e.bound, e.bounded) // pops r: it is the head, within bound
		e.q.put(r)
		e.now = t
		c.gen++
		return
	}
	c.parkAndDispatch()
}

// Sleep advances the context by d cycles.
func (c *Context) Sleep(d uint64) { c.WaitUntil(c.eng.now + d) }

// Block parks the context indefinitely. Some other activity must call
// Unblock (directly or via a Gate) or the context never runs again; the
// engine detects total deadlock in Machine-level drivers by the event queue
// draining while contexts remain.
func (c *Context) Block() {
	c.blocked = true
	if c.BlockNote != nil {
		t0 := c.eng.now
		c.parkAndDispatch()
		c.BlockNote(t0, c.eng.now)
		return
	}
	c.parkAndDispatch()
}

// Unblock schedules the context to resume at the current time. It must be
// called from engine execution (an event callback or another context), never
// from outside a running simulation.
func (c *Context) Unblock() { c.UnblockAt(c.eng.now) }

// UnblockAt schedules the context to resume at absolute time t. A wake is
// dropped if the context resumed through another path first.
func (c *Context) UnblockAt(t Time) {
	if c.done {
		panic("sim: unblock of finished context " + c.name)
	}
	c.wakeAt(t)
}

// Gate is a one-shot wake-up list: contexts Wait on it, events Fire it.
// After firing, Wait returns immediately. Typical use: a cache-fill
// completion that several loads are stalled on.
//
// The common case is exactly one waiter (a processor stalled on its own
// miss), so the first waiter lives in an inline slot and the spill slice is
// touched only when a second context joins the same gate. A fired gate can
// be returned to service with Reset, which keeps the spill slice's capacity —
// pooled transaction records reuse their embedded gates allocation-free.
type Gate struct {
	fired   bool
	w0      *Context   // inline first waiter (nil when none)
	waiters []*Context // second and later waiters
}

// Fired reports whether the gate has fired.
func (g *Gate) Fired() bool { return g.fired }

// Wait parks the context until the gate fires (returns at the fire time).
func (g *Gate) Wait(c *Context) {
	if g.fired {
		return
	}
	if g.w0 == nil {
		g.w0 = c
	} else {
		g.waiters = append(g.waiters, c)
	}
	c.Block()
}

// Fire releases all waiters, in arrival order, at the current simulation
// time.
func (g *Gate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	if w := g.w0; w != nil {
		g.w0 = nil
		w.Unblock()
	}
	for i, w := range g.waiters {
		g.waiters[i] = nil // don't pin contexts from the retained array
		w.Unblock()
	}
	g.waiters = g.waiters[:0]
}

// Reset returns a fired (or idle, waiter-free) gate to the unfired state so
// it can be waited on again. Resetting a gate that still has parked waiters
// would strand them, so that panics.
func (g *Gate) Reset() {
	if g.w0 != nil || len(g.waiters) > 0 {
		panic("sim: reset of a gate with parked waiters")
	}
	g.fired = false
}

// Live returns the number of spawned contexts whose bodies have not
// returned. Useful for deadlock diagnostics.
func (e *Engine) Live() int { return e.nlive }

// retire is called for a finishing context, from coroutine.run's defer.
// Pruning ctxs is amortized: once finished contexts make up half the slice,
// one O(len) compaction reclaims them, keeping ctxs within a constant factor
// of the live count instead of growing with every context ever spawned.
func (e *Engine) retire() {
	e.ndone++
	if e.ndone*2 >= len(e.ctxs) && len(e.ctxs) >= 16 {
		e.pruneCtxs()
	}
}

// pruneCtxs compacts ctxs down to the live contexts, nilling the tail so
// finished contexts are not pinned by the retained array.
func (e *Engine) pruneCtxs() {
	kept := e.ctxs[:0]
	for _, c := range e.ctxs {
		if !c.done {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(e.ctxs); i++ {
		e.ctxs[i] = nil
	}
	e.ctxs = kept
	e.ndone = 0
}

// Stuck lists the live contexts (name and state) — the ones a deadlock
// report should name. It also prunes finished contexts.
func (e *Engine) Stuck() []string {
	var out []string
	for _, c := range e.ctxs {
		if !c.done {
			out = append(out, c.String())
		}
	}
	e.pruneCtxs()
	return out
}

// String implements fmt.Stringer for debugging.
func (c *Context) String() string {
	state := "runnable"
	if c.done {
		state = "done"
	} else if c.blocked {
		state = "blocked"
	}
	return fmt.Sprintf("ctx(%s,%s)", c.name, state)
}
