package machine

import (
	"alewife/internal/cmmu"
	"alewife/internal/mem"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// Proc is a processor execution facade bound to one node and one sim
// context. Simulated programs call its methods; cycle costs accrue in a
// run-ahead accumulator that is flushed to the global clock at every
// coherence- or message-visible action, giving weak-ordering semantics (the
// consistency model Alewife software is written for) at a fraction of the
// event cost.
//
// Several Procs may exist for one node (the runtime's green threads), but
// the runtime guarantees only one runs at a time. Once its body returns, a
// Proc can be started again with Machine.Respawn.
type Proc struct {
	Node *Node
	Ctx  *sim.Context

	ahead uint64 // locally accumulated cycles not yet on the global clock
	// aheadHit/aheadMiss/aheadMsg class the run-ahead accumulator so Flush
	// can decompose the cycles it retires.
	aheadHit  uint64
	aheadMiss uint64
	aheadMsg  uint64

	// Attribution state, live only when the machine's profiler is enabled
	// (prof caches the handle's Prof at spawn; every hook is one nil
	// branch). region is a small stack of bucket tags redirecting charges
	// (sync wait, scheduler idle) pushed by the runtime around waits whose
	// meaning the machine layer cannot see.
	prof   *metrics.Profiler
	region [4]metrics.Bucket
	rlen   int

	// body is the current life's body, dropped when it starts so a
	// finished Proc pins nothing it captured; entry, built once per Proc,
	// is the context body that runs it.
	body  func(*Proc)
	entry func(*sim.Context)

	// acc is the access on the miss path, begun by missStep at the wake
	// of the flush before it and finished when the Proc resumes.
	acc mem.Access
}

// Elapse charges n cycles of local computation.
func (p *Proc) Elapse(n uint64) { p.ahead += n }

// Now returns the processor's logical time (global clock + run-ahead).
func (p *Proc) Now() sim.Time { return p.Ctx.Now() + p.ahead }

// Flush synchronizes the processor with the global clock: run-ahead cycles
// and the cycles the node's controller booked against it (directory traps
// and message handlers, see mem.Ctrl.TakeStolen) are paid before the next
// visible action.
func (p *Proc) Flush() {
	if d := p.book(); d > 0 {
		p.Ctx.Sleep(d)
	}
}

// FlushThen is Flush followed by w's step, where the step is what the
// processor does first once its clock is synchronized and ends in a park
// (begin a miss and wait for the fill, hand the processor to a thread): it
// books the cycles, then sleeps them off with sim.Context.SleepThen, so
// the step runs at the wake inside the dispatch loop and a step that parks
// costs no coroutine switch. With nothing to flush, the step runs here
// (sim.Context.RunStep).
//
//alewife:hotpath
func (p *Proc) FlushThen(w sim.AtWake) {
	if d := p.book(); d > 0 {
		p.Ctx.SleepThen(d, w)
		return
	}
	p.Ctx.RunStep(w)
}

// StepFlush is Flush taken inside the processor's running step: it books
// the cycles and names w as the step for the flush's wake
// (sim.Context.Then), and the calling step returns false. It reports
// false, arming nothing, when there was nothing to flush: the step then
// goes on inline, as the code after a Flush does.
//
//alewife:hotpath
func (p *Proc) StepFlush(w sim.AtWake) bool {
	d := p.book()
	if d == 0 {
		return false
	}
	p.Ctx.Then(d, w)
	return true
}

// FlushFire is the last Flush of a body that has nothing left to do on its
// processor: it books the cycles and schedules s.Fire(0, 0, 0) where the
// flush's wake would be, at the same (at, seq) place, so the body can
// return at once instead of being resumed only to return. It reports false,
// scheduling nothing, when there was nothing to flush.
//
//alewife:hotpath
func (p *Proc) FlushFire(s sim.Sink) bool {
	d := p.book()
	if d == 0 {
		return false
	}
	p.Node.M.Eng.AtSink(p.Ctx.Now()+d, s, 0, 0, 0)
	return true
}

// book takes the cycles a flush retires and returns them: the run-ahead
// and the stolen cycles, counted as busy. With the profiler on, the
// retired cycles are decomposed into buckets as they hit the wall clock:
// stolen cycles keep their origin (message handler, directory trap); the
// proc's own run-ahead splits into its access classes, or redirects
// wholesale to the active region (a barrier spin's reads and waits are
// sync time, not memory time).
func (p *Proc) book() uint64 {
	n := p.Node
	dir, msg := n.Ctrl.TakeStolen()
	own := p.ahead
	d := own + dir + msg
	if d == 0 {
		return 0
	}
	hit, miss, snd := p.aheadHit, p.aheadMiss, p.aheadMsg
	p.ahead, p.aheadHit, p.aheadMiss, p.aheadMsg = 0, 0, 0, 0
	n.M.St.Add(n.ID, stats.ProcBusyCycles, int64(d))
	if p.prof != nil {
		// Stolen cycles never redirect: they are asynchronous work that
		// landed here, not part of what the region is waiting on.
		p.prof.Add(n.ID, metrics.DirTrap, dir)
		p.prof.Add(n.ID, metrics.Handler, msg)
		if b := p.curRegion(); b != metrics.NoBucket {
			p.prof.Add(n.ID, b, own)
		} else {
			p.prof.Add(n.ID, metrics.CacheHit, hit)
			p.prof.Add(n.ID, metrics.MissStall, miss)
			p.prof.Add(n.ID, metrics.Handler, snd)
			p.prof.Add(n.ID, metrics.Compute, own-hit-miss-snd)
		}
	}
	return d
}

// curRegion returns the innermost region tag, or NoBucket when none is
// active (the default decomposition applies).
func (p *Proc) curRegion() metrics.Bucket {
	if p.rlen == 0 {
		return metrics.NoBucket
	}
	return p.region[p.rlen-1]
}

// PushRegion redirects this processor's subsequent attribution (run-ahead
// retired by Flush, park durations) to the given bucket until PopRegion.
// The runtime brackets synchronization (SyncWait) and scheduling (Idle)
// with it; NoBucket suppresses attribution entirely (used while a parked
// scheduler's interval belongs to the thread it dispatched). A no-op when
// metrics are disabled.
func (p *Proc) PushRegion(b metrics.Bucket) {
	if p.prof == nil {
		return
	}
	if p.rlen == len(p.region) {
		panic("machine: attribution region stack overflow")
	}
	p.region[p.rlen] = b
	p.rlen++
}

// PopRegion ends the innermost attribution region.
func (p *Proc) PopRegion() {
	if p.prof == nil {
		return
	}
	if p.rlen == 0 {
		panic("machine: PopRegion without PushRegion")
	}
	p.rlen--
}

// noteBlock is the Context.BlockNote hook: every park of this processor's
// context (a miss fill gate, a runtime block) is attributed as it ends.
// Inside a region the wait belongs to the region; otherwise the only
// parks a bare Proc performs are memory-system gates, so MissStall.
func (p *Proc) noteBlock(parked, woke sim.Time) {
	d := uint64(woke - parked)
	if d == 0 {
		return
	}
	b := p.curRegion()
	if b == metrics.NoBucket {
		if p.rlen > 0 {
			return // explicit NoBucket region: interval owned elsewhere
		}
		b = metrics.MissStall
	}
	p.prof.Add(p.Node.ID, b, d)
}

// sync enforces sequential consistency when configured: the access point
// joins the global order before the cache is examined.
func (p *Proc) sync() {
	if p.Node.M.Cfg.SeqConsistent {
		p.Flush()
	}
}

// Read performs a shared-memory load.
func (p *Proc) Read(a mem.Addr) uint64 {
	p.sync()
	if p.Node.Ctrl.FastRead(a) {
		p.ahead += mem.CacheHit
		p.aheadHit += mem.CacheHit
		return p.Node.M.Store.Read(a)
	}
	p.access(a, mem.Shared, false)
	p.ahead += mem.FillToUse + mem.CacheHit
	p.aheadMiss += mem.FillToUse
	p.aheadHit += mem.CacheHit
	return p.Node.M.Store.Read(a)
}

// Write performs a shared-memory store.
func (p *Proc) Write(a mem.Addr, v uint64) {
	p.sync()
	if p.Node.Ctrl.FastWrite(a) {
		p.ahead += mem.CacheHit
		p.aheadHit += mem.CacheHit
		p.Node.M.Store.Write(a, v)
		return
	}
	p.access(a, mem.Exclusive, false)
	p.ahead += mem.FillToUse + mem.CacheHit
	p.aheadMiss += mem.FillToUse
	p.aheadHit += mem.CacheHit
	p.Node.M.Store.Write(a, v)
}

// access flushes and takes an access through the node's miss path: a load
// or store that missed its fast path, or any atomic access. The flush's
// wake begins the access (missStep) and parks the processor on the fill
// there; Finish runs once it resumes.
func (p *Proc) access(a mem.Addr, want mem.LState, atomic bool) {
	p.acc = mem.Access{A: a, Want: want, Atomic: atomic}
	p.FlushThen((*missStep)(p))
	p.Node.Ctrl.Finish(p.Ctx, &p.acc)
}

// missStep is Proc.access's AtWake step, a type of its own so that the
// step is not a method of Proc's API.
type missStep Proc

// AtWake begins the pending access and leaves the processor parked on its
// fill when one is outstanding; any other ticket resumes the processor.
//
//alewife:hotpath
func (s *missStep) AtWake(c *sim.Context) bool {
	p := (*Proc)(s)
	return !p.Node.Ctrl.Begin(&p.acc).Park(c)
}

// ReadF and WriteF are float64 views of Read/Write.
func (p *Proc) ReadF(a mem.Addr) float64 { return f64(p.Read(a)) }

// WriteF stores a float64.
func (p *Proc) WriteF(a mem.Addr, v float64) { p.Write(a, bits(v)) }

// Prefetch issues a non-binding prefetch (shared or exclusive) for the line
// containing a; it costs one issue cycle and never blocks.
func (p *Proc) Prefetch(a mem.Addr, excl bool) {
	p.Flush()
	p.ahead += 1
	p.Node.Ctrl.Prefetch(a, excl)
}

// FetchAdd atomically adds delta to the word at a, returning the old value.
// It models Sparcle's atomic sequences over an exclusively held line.
func (p *Proc) FetchAdd(a mem.Addr, delta uint64) uint64 {
	p.access(a, mem.Exclusive, true)
	old := p.Node.M.Store.Read(a)
	p.Node.M.Store.Write(a, old+delta)
	p.ahead += 2 * mem.CacheHit
	p.aheadHit += 2 * mem.CacheHit
	return old
}

// CompareSwap atomically replaces old with new at a when it matches,
// reporting success.
func (p *Proc) CompareSwap(a mem.Addr, old, new uint64) bool {
	p.access(a, mem.Exclusive, true)
	cur := p.Node.M.Store.Read(a)
	p.ahead += 2 * mem.CacheHit
	p.aheadHit += 2 * mem.CacheHit
	if cur != old {
		return false
	}
	p.Node.M.Store.Write(a, new)
	return true
}

// TestSet atomically sets the word at a to 1, returning the previous value
// (0 means the caller won the lock).
func (p *Proc) TestSet(a mem.Addr) uint64 {
	p.access(a, mem.Exclusive, true)
	old := p.Node.M.Store.Read(a)
	p.Node.M.Store.Write(a, 1)
	p.ahead += 2 * mem.CacheHit
	p.aheadHit += 2 * mem.CacheHit
	return old
}

// SendMessage describes and launches a message (a few user-level
// instructions on Alewife); the processor is free as soon as the launch
// retires — Tinvoker in the paper's Figure 6.
func (p *Proc) SendMessage(d cmmu.Descriptor) {
	p.Flush()
	p.Launch(d)
}

// Launch is SendMessage after its flush, for a step that took the flush
// with StepFlush: the message departs once its describe-and-launch cycles,
// charged to the processor's run-ahead, have retired.
//
//alewife:hotpath
func (p *Proc) Launch(d cmmu.Descriptor) {
	cost := p.Node.CMMU.SendCost(d)
	p.Node.CMMU.Send(d, p.Ctx.Now()+cost)
	p.ahead += cost
	p.aheadMsg += cost
}

// MaskInterrupts defers message handlers on this node.
func (p *Proc) MaskInterrupts() { p.Node.CMMU.MaskInterrupts() }

// UnmaskInterrupts re-enables and drains deferred handlers; it flushes so
// the drain happens at the processor's logical time.
func (p *Proc) UnmaskInterrupts() {
	p.Flush()
	p.Node.CMMU.UnmaskInterrupts()
}

// Block parks the processor context (the runtime's idle/suspend path);
// run-ahead is flushed first so wake-ups see a consistent clock.
func (p *Proc) Block() {
	p.Flush()
	p.Ctx.Block()
}

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.Node.M }

// Store returns the global store (for value plumbing in workloads).
func (p *Proc) Store() *mem.Store { return p.Node.M.Store }

// ID returns the node id.
func (p *Proc) ID() int { return p.Node.ID }
