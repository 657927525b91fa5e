// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns virtual time. Work is expressed either as sink events
// (Engine.AtSink), pooled typed records a subsystem fires through its Sink,
// or as coroutine contexts (Engine.Spawn) that model sequential agents such
// as processors. At any instant exactly one logical activity runs — one sink
// event or one context — so simulation state never needs locking and runs
// are fully deterministic: events at equal times fire in scheduling order.
//
// Control transfer is coroutine switching. Context bodies run on runtime
// coroutines (iter.Pull): resuming one is a direct goroutine switch on the
// same OS thread, with no run queue, no idle-P wakeup and no futex, so a
// serial simulation never enters the Go scheduler and runs as fast on N
// cores as on one. A coroutine whose body returned waits on Engine.idle
// for the next Spawn or Respawn of the run, and the run's end stops the
// idle ones. Respawn also reuses the finished Context itself.
// The Run caller is the driver: it runs the dispatch loop (advance) and
// resumes the context whose wake comes up. A parking context runs the same
// loop inline; if its own wake comes up first it continues without
// switching, otherwise it records the next context to run (Engine.handoff)
// and yields back to the driver, which resumes that one. Run returns when a
// stop condition is reached: queue drained, Halt or a RunLimit budget.
//
// advance is the only code that dispatches an event, so dispatch order does
// not depend on which goroutine runs it: every event is a pop from the same
// ladder in (at, seq) order. A panic in a context body, or in an event its
// dispatch loop ran, is recovered on the coroutine and re-raised from Run
// with the context's name and stack.
// context.go, which imports iter, is built for go1.23 and later while
// go.mod stays at go 1.22, which the benchmark module's build requires.
//
// Scheduling is a pooled two-level ladder queue (see ladder.go): typed event
// records from a free list, time-indexed buckets for the near future, a
// sorted overflow tier for far-future timers. Steady-state scheduling is
// allocation-free. One engine belongs to one driving goroutine (the one that
// calls Run); its contexts run only inside that goroutine's resume calls, so
// exactly one of them touches engine state at a time and every switch is a
// happens-before edge. Independent engines driven from separate goroutines
// share nothing, which is the confinement rule the fanout package's parallel
// harness relies on.
package sim

import "fmt"

// Time is the simulation clock in processor cycles.
type Time = uint64

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Time
	q   ladder
	seq uint64
	// handoff is the context a parked context's dispatch loop found due
	// next: the parker yields to the driver, which resumes this one. A yield
	// that leaves it nil means a stop condition ended the run.
	handoff *Context
	// idle holds coroutines whose body finished, for Spawn and Respawn to
	// reuse until the run ends.
	idle   []*coroutine
	nlive  int // live (un-finished) contexts
	halted bool
	// The budget of the current run, consulted by whichever loop
	// dispatches (the driver's or a parked context's); only one runs at a
	// time.
	budgeted bool
	budget   uint64 // events left to dispatch while budgeted (RunLimit)
	// ctxPanic carries a panic out of a context body so the driver can
	// re-raise it from Run where callers can see it.
	ctxPanic *panicValue
	// ctxs tracks spawned contexts for deadlock diagnostics, each once
	// however often Respawn reuses it. Finished contexts are pruned by
	// amortized compaction (retire) and by Stuck.
	ctxs  []*Context
	ndone int // finished contexts not yet pruned from ctxs
	// chooser, when non-nil, decides which of several same-cycle events
	// fires first (see SetChooser). candBuf/choiceBuf are its reusable
	// scratch so choice points stay allocation-free.
	chooser   Chooser
	candBuf   []*event
	choiceBuf []Choice
	// work counts what advance dispatched; see Work.
	work Work
	// stepping is the context whose step is running, the only one that
	// may name a successor step (Context.Then, ThenOnWake).
	stepping *Context
}

// Work is the engine's dispatch work since NewEngine: a pure function of
// the run, where its host time is not. Every wake advance pops is a
// handoff, a self-continue, an absorbed wake or a stale one, which is not
// counted, and only a handoff costs coroutine switches: two, parker to
// driver to the resumed context. The counts are plain fields, not
// stats counters, so that no run's counter snapshot changes with them.
type Work struct {
	// Events counts the records advance popped: sinks and wakes, stale
	// ones included. A chooser's run drops stale wakes without popping
	// them there (nextChosen), and they are not counted.
	Events uint64
	// Handoffs counts wakes that resumed a context other than the one
	// running the dispatch loop.
	Handoffs uint64
	// SelfContinues counts wakes that resumed the context running the
	// loop, which continues inline.
	SelfContinues uint64
	// Absorbed counts wakes whose pending step, named with Then or
	// ThenOnWake, left the context parked or named its successor, so the
	// loop went on without resuming it.
	Absorbed uint64
}

// Work returns the engine's dispatch counts so far.
func (e *Engine) Work() Work { return e.work }

type panicValue struct {
	ctx   string
	val   interface{}
	stack string
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{q: newLadder()}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// atWake schedules a closure-free context wake-up record: the start of
// every context, and every Sleep, WaitUntil and Unblock.
//
//alewife:hotpath
func (e *Engine) atWake(t Time, c *Context, gen uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling wake at %d before now %d", t, e.now))
	}
	e.seq++
	r := e.q.get()
	r.at, r.seq, r.ctx, r.gen = t, e.seq, c, gen
	e.q.push(r)
}

// Sink receives pooled closure-free events scheduled with AtSink, the
// engine's only events besides context wakes. The meaning of op/p0/p1 is
// the sink's own; the engine just carries them. Subsystems with
// per-message traffic (the coherence protocol, the network, the message
// unit) implement Sink once and encode each message kind in op, so every
// event is a pooled typed record and none allocates a closure.
type Sink interface {
	Fire(op uint32, p0, p1 uint64)
}

// AtSink schedules s.Fire(op, p0, p1) at absolute time t using a pooled
// record. Scheduling in the past panics: it would silently corrupt
// causality.
//
//alewife:engine-only
func (e *Engine) AtSink(t Time, s Sink, op uint32, p0, p1 uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	r := e.q.get()
	r.at, r.seq, r.sink, r.op, r.p0, r.gen = t, e.seq, s, op, p0, p1
	e.q.push(r)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.size }

// Choice kinds: what sort of pending event a candidate descriptor denotes.
const (
	// ChoiceWake resumes a context; Node identifies the processor when the
	// context set one.
	ChoiceWake uint8 = iota
	// ChoiceSink is a pooled subsystem event; Node/Key come from the sink's
	// EventInfo when it implements SinkInfo, and a sink that does not is
	// opaque (Node -1).
	ChoiceSink
)

// Choice describes one candidate event at a choice point. Seq is the
// engine-assigned scheduling order (stable across identical re-executions,
// so a chooser can use it as the event's identity); Node is the processor
// the event belongs to, or -1 when unknown; Key names the resource the
// event touches (a cache line, a channel pair — sink-defined, meaningful
// only for ChoiceSink with Node >= 0). Two ChoiceSink candidates on
// different nodes AND different keys are the ones a partial-order reducer
// may treat as commuting.
type Choice struct {
	Seq  uint64
	Key  uint64
	Node int32
	Kind uint8
}

// Chooser decides which of several events ready at the same cycle fires
// first. Choose receives the shared fire time and one descriptor per
// candidate, in (at, seq) order, and returns the index to fire; the
// remaining candidates are re-offered (minus any that became stale) at the
// next choice point. The cands slice is scratch owned by the engine —
// copy it to retain. Returning an out-of-range index panics.
type Chooser interface {
	Choose(now Time, cands []Choice) int
}

// SinkInfo is optionally implemented by a Sink to describe its pending
// events to a Chooser: which node an event belongs to and which resource
// (line, pair — the sink's own key space) it touches. Sinks whose events
// have global effects should report node -1, which marks the event opaque
// — never treated as commuting with anything.
type SinkInfo interface {
	EventInfo(op uint32, p0, p1 uint64) (node int32, key uint64)
}

// SetChooser installs (or, with nil, removes) the engine's schedule
// chooser. With a chooser installed, every dispatch where more than one
// live event is ready at the minimum pending cycle consults the chooser
// instead of firing in seq order; advance is the only dispatch path, so
// none bypasses the hook. Installing a chooser changes which schedules
// run, never which schedules are possible: any pick corresponds to a legal
// (at, seq)-respecting execution at that cycle. Must not be called while a
// run is in progress.
//
//alewife:engine-only
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// nextChosen is the chooser-aware analogue of ladder.next: it collects
// every record in the minimum pending bucket (all share one timestamp),
// silently discards stale wakes — firing one is a no-op, so offering it as
// an alternative would only multiply equivalent schedules — and delegates
// the pick to the chooser when more than one live candidate remains.
// Stale wakes dropped here do not consume RunLimit budget (they perform no
// work), but move the clock to their time as advance does, since the
// ladder's cursor has already passed it; otherwise dispatch semantics match
// the default path exactly.
func (e *Engine) nextChosen() *event {
	for {
		cands := e.q.candidates(e.candBuf[:0])
		e.candBuf = cands
		if len(cands) == 0 {
			return nil
		}
		live := cands[:0]
		for _, r := range cands {
			if c := r.ctx; c != nil && (c.done || c.gen != r.gen) {
				e.now = r.at
				e.q.take(r)
				e.q.put(r)
				continue
			}
			live = append(live, r)
		}
		if len(live) == 0 {
			continue
		}
		r := live[0]
		if len(live) > 1 {
			ds := e.choiceBuf[:0]
			for _, c := range live {
				ds = append(ds, e.describe(c))
			}
			e.choiceBuf = ds
			i := e.chooser.Choose(live[0].at, ds)
			if i < 0 || i >= len(live) {
				panic(fmt.Sprintf("sim: chooser picked index %d of %d candidates", i, len(live)))
			}
			r = live[i]
		}
		e.q.take(r)
		return r
	}
}

// describe builds the Choice descriptor for one pending record.
func (e *Engine) describe(r *event) Choice {
	if r.ctx != nil {
		return Choice{Seq: r.seq, Kind: ChoiceWake, Node: r.ctx.Node}
	}
	if si, ok := r.sink.(SinkInfo); ok {
		node, key := si.EventInfo(r.op, r.p0, r.gen)
		return Choice{Seq: r.seq, Kind: ChoiceSink, Node: node, Key: key}
	}
	return Choice{Seq: r.seq, Kind: ChoiceSink, Node: -1}
}

// Halt stops the run loop after the current event completes. Used by drivers
// that reached their measurement and do not care about draining the queue.
//
//alewife:engine-only
func (e *Engine) Halt() { e.halted = true }

// advance is the dispatch loop, and the only code that dispatches an event:
// it pops events in (at, seq) order, runs sinks and pending steps inline,
// drops stale wakes, and ends when control must move. self is the parked
// context running the loop, or nil when the driver runs it. It reports
// whether self's own wake fired, in which case self continues with no
// switch; otherwise it ended with the next context to resume in
// e.handoff, or with e.handoff nil on a stop condition (drained queue,
// Halt, budget).
//
//alewife:hotpath
func (e *Engine) advance(self *Context) bool {
	for {
		if e.halted || (e.budgeted && e.budget == 0) {
			return false
		}
		var r *event
		if e.chooser != nil {
			r = e.nextChosen()
		} else {
			r = e.q.next()
		}
		if r == nil {
			return false
		}
		if e.budgeted {
			e.budget--
		}
		e.work.Events++
		e.now = r.at
		if c := r.ctx; c != nil {
			gen := r.gen
			e.q.put(r)
			// A wake is stale — and dropped — if the context finished or
			// was resumed through another path since the wake was armed.
			if c.done || c.gen != gen {
				continue
			}
			// Resuming opens a new generation, invalidating any other
			// wake still queued for the old one.
			c.blocked = false
			c.gen++
			// A pending step runs here, in the wake's place, as the
			// context would have run it on resuming, after the park a
			// chained step left it in is reported. When it parks the
			// context again, no switch happens at all.
			if w := c.step; w != nil {
				c.step = nil
				c.notePark()
				e.stepping = c
				if !c.stepped(w.AtWake(c)) {
					e.work.Absorbed++
					continue
				}
				c.checkResume()
			}
			if c == self {
				e.work.SelfContinues++
				return true
			}
			e.work.Handoffs++
			e.handoff = c
			return false
		}
		s, op, p0, p1 := r.sink, r.op, r.p0, r.gen
		e.q.put(r)
		s.Fire(op, p0, p1)
	}
}

// drive runs the dispatch loop from the Run goroutine and resumes each
// context it hands off to, until a stop condition ends the run. A resumed
// context returns here when it parks on another context's wake (handoff
// set: resume that one), parks on a stop condition (handoff nil: the run is
// over), or finishes (keep dispatching here). A panic recorded by a body
// re-raises as soon as that body has returned.
func (e *Engine) drive() {
	defer e.stopIdle()
	e.advance(nil)
	for c := e.handoff; c != nil; c = e.handoff {
		e.handoff = nil
		c.co.next()
		if !c.done {
			continue
		}
		if p := e.ctxPanic; p != nil {
			e.ctxPanic = nil
			panic(fmt.Sprintf("sim: context %s panicked: %v\n--- context stack ---\n%s", p.ctx, p.val, p.stack))
		}
		e.advance(nil)
	}
}

// stopIdle ends the coroutines parked on Engine.idle.
func (e *Engine) stopIdle() {
	for i, co := range e.idle {
		e.idle[i] = nil
		co.stop()
	}
	e.idle = e.idle[:0]
}

// Run executes events in time order until the queue is empty or Halt is
// called. It must be called from the goroutine that created the engine.
//
//alewife:engine-only
func (e *Engine) Run() {
	e.halted = false
	e.budgeted = false
	e.drive()
}

// RunLimit executes at most max events in time order, stopping early on an
// empty queue or Halt. It reports whether the queue drained: false means the
// budget was exhausted first — the caller (e.g. the protocol fuzzer, whose
// broken-protocol mutations can livelock) should treat the run as stuck.
//
//alewife:engine-only
func (e *Engine) RunLimit(max uint64) bool {
	e.halted = false
	e.budgeted, e.budget = true, max
	e.drive()
	e.budgeted = false
	if e.budget == 0 {
		return e.q.size == 0
	}
	return true
}
