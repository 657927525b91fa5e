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

	// The access on the miss path (any access that missed its fast path,
	// and every atomic one), run as a chain of steps (accessStep): acc is
	// its memory side, op and the operands v and v2 say what it does once
	// its probe hits, flush that the flush before it is still to be taken,
	// probe that the fast path of a load or store is still to be tried,
	// next the step that runs once it is done (nil resumes the processor),
	// and val its result.
	acc   mem.Access
	op    accOp
	v, v2 uint64
	flush bool
	probe bool
	next  sim.AtWake
	val   uint64
}

// accOp is what an access does once its probe hits.
type accOp uint8

const (
	opRead accOp = iota
	opWrite
	opTestSet
	opFetchAdd
	opCompareSwap
)

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
		p.hit()
		return p.Node.M.Store.Read(a)
	}
	p.miss(a, opRead, 0, 0)
	return p.val
}

// Write performs a shared-memory store.
func (p *Proc) Write(a mem.Addr, v uint64) {
	p.sync()
	if p.Node.Ctrl.FastWrite(a) {
		p.hit()
		p.Node.M.Store.Write(a, v)
		return
	}
	p.miss(a, opWrite, v, 0)
}

// hit charges a fast-path hit.
func (p *Proc) hit() {
	p.ahead += mem.CacheHit
	p.aheadHit += mem.CacheHit
}

// miss takes an access through its chain of steps from the processor's
// body, flush first, and the processor resumes once the chain has
// completed it.
func (p *Proc) miss(a mem.Addr, op accOp, v, v2 uint64) {
	p.setAccess(a, op, v, v2, nil)
	p.flush = true
	p.Ctx.RunStep((*accessStep)(p))
}

// setAccess makes the access to a the processor's pending one.
//
//alewife:hotpath
func (p *Proc) setAccess(a mem.Addr, op accOp, v, v2 uint64, next sim.AtWake) {
	p.acc = mem.Access{A: a, Want: mem.Exclusive}
	if op == opRead {
		p.acc.Want = mem.Shared
	}
	p.op, p.v, p.v2, p.next, p.flush, p.probe = op, v, v2, next, false, false
}

// StepRead is Read taken inside the processor's running step, for a chain
// of steps. It reports false when the load completed inline, a fast-path
// hit, and the step goes on; otherwise it armed the load's chain, the
// calling step returns false, and w runs once the load is done, at the
// wake whose probe hit. Either way Val then returns the word.
//
//alewife:hotpath
func (p *Proc) StepRead(a mem.Addr, w sim.AtWake) bool {
	return p.stepAccess(a, opRead, 0, w)
}

// StepWrite is Write taken inside the processor's running step, reporting
// as StepRead does.
//
//alewife:hotpath
func (p *Proc) StepWrite(a mem.Addr, v uint64, w sim.AtWake) bool {
	return p.stepAccess(a, opWrite, v, w)
}

// StepTestSet is TestSet taken inside the processor's running step,
// reporting as StepRead does; Val then returns the word's old value.
//
//alewife:hotpath
func (p *Proc) StepTestSet(a mem.Addr, w sim.AtWake) bool {
	return p.stepAccess(a, opTestSet, 0, w)
}

// Val returns the result of the processor's last access taken as a chain:
// the word a load read, or the old word of a test-and-set or fetch-and-add.
func (p *Proc) Val() uint64 { return p.val }

// stepAccess starts an access inside the running step. A load or store
// tries its fast path first, after the flush sequential consistency puts
// before every access; an atomic access flushes and goes straight to the
// miss path, as its coroutine form does.
//
//alewife:hotpath
func (p *Proc) stepAccess(a mem.Addr, op accOp, v uint64, w sim.AtWake) bool {
	p.setAccess(a, op, v, 0, w)
	p.probe = op <= opWrite
	p.flush = !p.probe || p.Node.M.Cfg.SeqConsistent
	return p.take()
}

// take runs the pending access from where it stands, inside the running
// step, to its end or to its next wait: the flush before it when that is
// still to be taken, the fast path's probe when it is still to be tried,
// the flush before the miss path, then the miss path (mem.Ctrl.Step),
// whose last probe and the data operation and its cycles (apply) come in
// one step. It reports true when it armed a wait, whose wake runs
// accessStep.
//
//alewife:hotpath
func (p *Proc) take() bool {
	if p.flush {
		p.flush = false
		if p.StepFlush((*accessStep)(p)) {
			return true
		}
	}
	if p.probe {
		p.probe = false
		if p.fast() {
			return false
		}
		if p.StepFlush((*accessStep)(p)) {
			return true
		}
	}
	if !p.Node.Ctrl.Step(p.Ctx, &p.acc, (*accessStep)(p)) {
		return true
	}
	p.apply()
	return false
}

// fast takes a load's or a store's fast path, and reports false on a
// miss.
//
//alewife:hotpath
func (p *Proc) fast() bool {
	a := p.acc.A
	if p.op == opRead {
		if !p.Node.Ctrl.FastRead(a) {
			return false
		}
		p.val = p.Node.M.Store.Read(a)
	} else {
		if !p.Node.Ctrl.FastWrite(a) {
			return false
		}
		p.Node.M.Store.Write(a, p.v)
	}
	p.hit()
	return true
}

// apply does the data operation of an access whose miss path just ended
// on a hit, and charges its cycles: a load or store pays the fill's
// FillToUse and a hit, and an atomic sequence two hits.
//
//alewife:hotpath
func (p *Proc) apply() {
	a, st := p.acc.A, p.Node.M.Store
	switch p.op {
	case opRead:
		p.val = st.Read(a)
	case opWrite:
		st.Write(a, p.v)
	default:
		old := st.Read(a)
		p.val = old
		switch p.op {
		case opTestSet:
			st.Write(a, 1)
		case opFetchAdd:
			st.Write(a, old+p.v)
		case opCompareSwap:
			p.val = 0
			if old == p.v {
				st.Write(a, p.v2)
				p.val = 1
			}
		}
		p.ahead += 2 * mem.CacheHit
		p.aheadHit += 2 * mem.CacheHit
		return
	}
	p.ahead += mem.FillToUse + mem.CacheHit
	p.aheadMiss += mem.FillToUse
	p.aheadHit += mem.CacheHit
}

// accessStep is the step of the pending access's chain, a type of its own
// so that the step is not a method of Proc's API.
type accessStep Proc

// AtWake takes the access on from its wake; once the access is done it
// runs the step the access names next, or resumes the processor.
//
//alewife:hotpath
func (s *accessStep) AtWake(c *sim.Context) bool {
	p := (*Proc)(s)
	if p.take() {
		return false
	}
	w := p.next
	p.next = nil
	return w == nil || w.AtWake(c)
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
	p.miss(a, opFetchAdd, delta, 0)
	return p.val
}

// CompareSwap atomically replaces old with new at a when it matches,
// reporting success.
func (p *Proc) CompareSwap(a mem.Addr, old, new uint64) bool {
	p.miss(a, opCompareSwap, old, new)
	return p.val != 0
}

// TestSet atomically sets the word at a to 1, returning the previous value
// (0 means the caller won the lock).
func (p *Proc) TestSet(a mem.Addr) uint64 {
	p.miss(a, opTestSet, 0, 0)
	return p.val
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

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.Node.M }

// Store returns the global store (for value plumbing in workloads).
func (p *Proc) Store() *mem.Store { return p.Node.M.Store }

// ID returns the node id.
func (p *Proc) ID() int { return p.Node.ID }
