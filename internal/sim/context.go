//go:build go1.23

// iter is Go 1.23; the constraint lets this file use it while go.mod stays
// at go 1.22 (see the package comment).

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"strconv"
)

// Context is a simulated sequential agent (a processor, a thread). Its body
// is a coroutine resumed by the Run goroutine: it runs only between a
// resume and the next call into WaitUntil/Sleep/Block, during which no
// other context or event runs. While parked, a context runs the dispatch
// loop (advance) itself and yields to the driver only when another context
// is due next or the run stops.
type Context struct {
	eng *Engine
	// name and id make up the debug name, formatted only when printed
	// (see Name): a label such as "thr", numbered by id when id is not 0.
	name string
	id   uint64
	// co runs the body. Once the body returns, co may serve another
	// context; a finished context never touches it again.
	co   *coroutine
	done bool
	// gen counts resumptions; wake events capture the generation at which
	// they were armed so a stale wake (context already resumed by another
	// path) is dropped instead of corrupting the park/resume protocol. It
	// keeps counting across the lives Respawn gives a context, so a wake
	// armed in an earlier life can never match.
	gen uint64
	// blocked is informational: true while parked with no wake event queued.
	blocked bool
	// step is the pending step of SleepThen, Then or ThenOnWake, run and
	// cleared by the next wake that resumes the context (Engine.advance).
	// stepParked records that a step left the context parked, at
	// parkedAt, and the park is reported to BlockNote when the context
	// runs again: its successor step, or the body once it resumes.
	step       AtWake
	stepParked bool
	parkedAt   Time
	// listed is true while the context is on Engine.ctxs, so a reused
	// context is listed once.
	listed bool

	// BlockNote, when non-nil, observes every Block on this context, and
	// every park a step leaves it in (a step that returns false, or
	// ThenOnWake): it is called with the park time and the wake time once
	// the context runs again.
	// The metrics layer hangs cycle attribution off it — why the context
	// woke is known to the caller that parked, so the caller tags the wait
	// and this hook supplies the measured duration. Nil costs one branch.
	BlockNote func(parked, woke Time)

	// Node identifies the processor this context models, for Chooser
	// descriptors and as the prefix of Name; -1 (the default) means the
	// context belongs to no particular node and its wakes are opaque to
	// partial-order reduction.
	Node int32
}

// Name returns the context's debug name: its label, numbered by its id
// when it has one, and prefixed with its node when it has one — a runtime
// thread prints as "n3:thr1234". It is built on each call, so contexts that
// are never printed never format a name.
func (c *Context) Name() string {
	name := c.name
	if c.id != 0 {
		name += strconv.FormatUint(c.id, 10)
	}
	if c.Node >= 0 {
		name = "n" + strconv.Itoa(int(c.Node)) + ":" + name
	}
	return name
}

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
	return e.Respawn(nil, name, 0, at, fn)
}

// Respawn starts fn at time `at` on c, a context whose body has returned,
// or on a new context when c is nil; it returns the context. The context
// starts its new life as Spawn leaves a new one: named name (numbered by
// id when id is not 0, see Name), on no node, with no BlockNote. Reuse
// allocates nothing. The generation keeps counting instead of restarting
// at 0: the new life opens a new one, so a wake still queued from an
// earlier life is stale when it comes up and is dropped.
//
//alewife:engine-only
func (e *Engine) Respawn(c *Context, name string, id uint64, at Time, fn func(*Context)) *Context {
	if c == nil {
		c = &Context{eng: e}
	} else if !c.done {
		panic("sim: respawn of live context " + c.Name())
	} else {
		c.gen++
	}
	c.name, c.id, c.Node, c.BlockNote = name, id, -1, nil
	c.done, c.blocked = false, false
	if c.listed {
		e.ndone-- // finished in its last life, not yet pruned
	} else {
		c.listed = true
		e.ctxs = append(e.ctxs, c)
	}
	e.nlive++
	co := e.idleCoroutine()
	co.ctx, co.body = c, fn
	c.co = co
	e.atWake(at, c, c.gen) // the start event is an ordinary wake
	return c
}

// coroutine runs context bodies one after another. When a body returns, the
// coroutine parks on Engine.idle instead of exiting, and the next Spawn or
// Respawn in the same run reuses it: the goroutine and iter.Pull's
// allocations are paid per coroutine, not per context. drive stops the idle
// ones when the run ends, so no goroutine outlives the contexts it served.
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
			e.ctxPanic = &panicValue{ctx: c.Name(), val: r, stack: string(debug.Stack())}
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
// record takes its place in (at, seq) order like any other. When the wake
// is the next due event, the context's own dispatch loop consumes it and
// the context continues with no switch.
func (c *Context) WaitUntil(t Time) {
	if t < c.eng.now {
		t = c.eng.now
	}
	c.wakeAt(t)
	c.parkAndDispatch()
}

// Sleep advances the context by d cycles.
func (c *Context) Sleep(d uint64) { c.WaitUntil(c.eng.now + d) }

// AtWake is a step that SleepThen runs at its wake, inside the dispatch
// loop. It returns true to resume the context there, or false to leave it
// parked: on whatever the step armed (a Gate.Park, an UnblockAt), or on
// the successor it named with Then or ThenOnWake, which the next wake runs
// in turn. Either way that wake costs no coroutine switch.
type AtWake interface {
	AtWake(c *Context) bool
}

// SleepThen sleeps d cycles, then runs w.AtWake(c) inside the dispatch
// loop, at the wake's own (at, seq) place, and returns once the context
// resumes. It behaves exactly as
//
//	c.Sleep(d)
//	if !w.AtWake(c) {
//		c.Block()
//	}
//
// because the step runs what the resumed context would have run before
// its next park, with nothing dispatched in between; it only saves the
// two coroutine switches of resuming the context to run the step. The
// step belongs to the context, not to the wake record: whichever wake
// resumes the context first runs it (an UnblockAt that cuts the sleep
// short does), and the sleep's own wake is then stale. A step that parks
// the context is reported to BlockNote as a Block would be, from the wake
// to the resume.
//
//alewife:hotpath
func (c *Context) SleepThen(d uint64, w AtWake) {
	c.step = w
	c.wakeAt(c.eng.now + d)
	c.parkAndDispatch()
	c.notePark()
}

// RunStep runs w.AtWake(c) now, on the context's own coroutine, and
// returns once the context resumes: at once when the step returns true,
// otherwise when a wake resumes it, through the chain of successors the
// step named (Then, ThenOnWake) when it named one. A body starts a chain
// of steps with it. A step that names no successor makes it behave as
//
//	if !w.AtWake(c) {
//		c.Block()
//	}
//
//alewife:hotpath
func (c *Context) RunStep(w AtWake) {
	c.eng.stepping = c
	if c.stepped(w.AtWake(c)) {
		c.checkResume()
		return
	}
	c.parkAndDispatch()
	c.notePark()
}

// Then names w as the step for the context's next wake and arms that wake
// d cycles from now. It is the chained form of a step that resumes the
// context, which then runs
//
//	c.Sleep(d)
//	if !w.AtWake(c) {
//		c.Block()
//	}
//
// and it may be called only from inside the context's running step, which
// then returns false. The wake takes the seq the Sleep would take, so a
// step calls Then last, after everything it schedules. Like a Sleep, the
// chained sleep reports nothing to BlockNote.
//
//alewife:hotpath
func (c *Context) Then(d uint64, w AtWake) {
	c.chain(w)
	c.wakeAt(c.eng.now + d)
}

// ThenOnWake names w as the step for the context's next wake, which is left
// to whoever unblocks the context (Unblock, UnblockAt, a Gate). It is the
// chained form of a step that resumes the context, which then runs
//
//	c.Block()
//	if !w.AtWake(c) {
//		c.Block()
//	}
//
// and it may be called only from inside the context's running step, which
// then returns false. The park is reported to BlockNote when the wake
// comes, just before w runs, as Block reports it on resume.
//
//alewife:hotpath
func (c *Context) ThenOnWake(w AtWake) {
	c.chain(w)
	c.blocked, c.stepParked, c.parkedAt = true, true, c.eng.now
}

// chain makes w the pending step, from inside the context's running step.
// A step runs on whichever coroutine dispatches it, so a successor named
// anywhere else would leave a step pending on a context that is running,
// or on one that another step is about to park.
func (c *Context) chain(w AtWake) {
	if c.eng.stepping != c {
		panic("sim: successor step for " + c.Name() + " named outside its running step")
	}
	if c.step != nil {
		panic("sim: step of " + c.Name() + " named two successors")
	}
	c.step = w
}

// stepped ends the context's running step, which returned resume, and
// passes resume on. A step that leaves the context parked without naming a
// successor parks it on whatever it armed, a park the next resume reports
// to BlockNote. Callers set Engine.stepping and call the step themselves,
// so that the dispatch loop calls a step directly, and check that a step
// that resumes the context named no successor.
func (c *Context) stepped(resume bool) bool {
	c.eng.stepping = nil
	if !resume && c.step == nil {
		c.blocked, c.stepParked, c.parkedAt = true, true, c.eng.now
	}
	return resume
}

// checkResume panics when the step that resumed the context named a
// successor, which would be left pending while the context runs.
func (c *Context) checkResume() {
	if c.step != nil {
		panic("sim: step of " + c.Name() + " named a successor and resumed the context")
	}
}

// notePark reports a park a step left the context in to BlockNote, now
// that the context runs again.
func (c *Context) notePark() {
	if c.stepParked {
		c.stepParked = false
		if c.BlockNote != nil {
			c.BlockNote(c.parkedAt, c.eng.now)
		}
	}
}

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
		panic("sim: unblock of finished context " + c.Name())
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
	if g.Park(c) {
		c.Block()
	}
}

// Park adds c as a waiter without blocking it, for an AtWake step that
// leaves c parked, and reports whether it did: false means the gate has
// already fired.
//
//alewife:hotpath
func (g *Gate) Park(c *Context) bool {
	if g.fired {
		return false
	}
	if g.w0 == nil {
		g.w0 = c
	} else {
		g.waiters = append(g.waiters, c)
	}
	return true
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
		if c.done {
			c.listed = false
		} else {
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
	return fmt.Sprintf("ctx(%s,%s)", c.Name(), state)
}
