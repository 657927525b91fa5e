package core

import (
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// SpinLock is a test&set lock in shared memory with exponential backoff —
// the queue and future locks of the shared-memory runtime. The paper's
// point about such locks is precisely that acquiring one on a remote node
// costs at least a network round trip; the simulation makes that emerge
// from the coherence protocol rather than charging it directly.
type SpinLock struct {
	addr mem.Addr
}

// NewSpinLock allocates a lock word (its own cache line) on node.
func NewSpinLock(m *machine.Machine, node int) *SpinLock {
	return &SpinLock{addr: m.Store.AllocOn(node, mem.LineWords)}
}

// Release frees the lock (a plain store; the line is exclusively held).
func (l *SpinLock) Release(p *machine.Proc) {
	p.Write(l.addr, 0)
}

// lockOp is one acquisition of a spin lock, run as a chain of steps
// (lockStep) on processor p: test-and-set until the old word is 0, with
// an exponential backoff between tries. It lives in the record whose
// processor acquires the lock: a queueOp for a queue's lock, a Thread's
// queueOp for a future's lock. Spin and backoff cycles are synchronization
// wait, not compute, so the acquisition runs under a SyncWait attribution
// region, from before the first test-and-set to after the winning one.
type lockOp struct {
	p       *machine.Proc
	addr    mem.Addr
	backoff uint64
	state   uint8
	// next runs once the lock is held; nil resumes p's body.
	next sim.AtWake
}

// The points of an acquisition a wake takes up.
const (
	lkTest   uint8 = iota // test-and-set the lock word
	lkTested              // the test-and-set is done: won, or back off
)

// start readies an acquisition of the lock word addr on p, whose end runs
// next. A step goes on with acquire; a body runs the chain with
// p.Ctx.RunStep((*lockStep)(o)).
func (o *lockOp) start(p *machine.Proc, addr mem.Addr, next sim.AtWake) {
	o.p, o.addr, o.next = p, addr, next
	o.backoff, o.state = 4, lkTest
	p.PushRegion(metrics.SyncWait)
}

// acquire acquires the lock word addr inside p's running step. It reports
// false when the lock was won inline, and the step goes on; otherwise the
// chain is armed, the calling step returns false, and next runs once the
// lock is held.
//
//alewife:hotpath
func (o *lockOp) acquire(p *machine.Proc, addr mem.Addr, next sim.AtWake) bool {
	o.start(p, addr, next)
	return (*lockStep)(o).run()
}

// lockStep is a lockOp's step, a type of its own so that AtWake is not a
// method of lockOp.
type lockStep lockOp

// run takes the acquisition from its state until the lock is held, and
// reports true when it armed a wait instead.
//
//alewife:hotpath
func (s *lockStep) run() bool {
	p := s.p
	for {
		if s.state == lkTest {
			s.state = lkTested
			if p.StepTestSet(s.addr, s) {
				return true
			}
		}
		if p.Val() == 0 {
			break
		}
		p.Node.M.St.Inc(p.ID(), stats.LockSpins)
		p.Elapse(s.backoff)
		s.state = lkTest
		armed := p.StepFlush(s)
		if s.backoff < 256 {
			s.backoff *= 2
		}
		if armed {
			return true
		}
	}
	p.PopRegion()
	p.Node.M.St.Inc(p.ID(), stats.LockAcquisitions)
	return false
}

// AtWake takes the acquisition on from its wake and runs its successor
// once the lock is held.
//
//alewife:hotpath
func (s *lockStep) AtWake(c *sim.Context) bool {
	if s.run() {
		return false
	}
	return then(s.next, c)
}

// then runs w, the step a finished chain names next, or resumes the
// context when it names none (a body ran the chain with RunStep).
//
//alewife:hotpath
func then(w sim.AtWake, c *sim.Context) bool {
	return w == nil || w.AtWake(c)
}
