package mem

import "alewife/internal/sim"

// accessStep runs one access's chain of steps (Ctrl.Step) for a test body,
// as a processor's access does.
type accessStep struct {
	c *Ctrl
	x Access
}

func (s *accessStep) AtWake(ctx *sim.Context) bool { return s.c.Step(ctx, &s.x, s) }

// run takes x through its chain from ctx's body and returns once the access
// is complete.
func (c *Ctrl) run(ctx *sim.Context, x Access) { ctx.RunStep(&accessStep{c: c, x: x}) }

// Read stalls ctx until the line containing a is readable in this node's
// cache; the caller loads the value from the store afterwards.
func (c *Ctrl) Read(ctx *sim.Context, a Addr) { c.run(ctx, Access{A: a, Want: Shared}) }

// Write stalls ctx until this node holds the line exclusively.
func (c *Ctrl) Write(ctx *sim.Context, a Addr) { c.run(ctx, Access{A: a, Want: Exclusive}) }

// AcquireExclusive stalls ctx until a write to a hits exclusively right
// now, for a read-modify-write with no coherence action in between: an
// access ends in the step whose probe hit, so this is Write.
func (c *Ctrl) AcquireExclusive(ctx *sim.Context, a Addr) { c.Write(ctx, a) }

// ticketWait waits out one ticket of an access for a test body, through
// the park forms the access's chain uses (Ctrl.await), and stops before
// the access probes again.
type ticketWait struct {
	c     *Ctrl
	x     Access
	armed bool
}

func (s *ticketWait) AtWake(ctx *sim.Context) bool {
	if s.armed && !s.x.slot {
		return true
	}
	s.armed = true
	return !s.c.await(ctx, &s.x, s)
}

// waitTicket parks ctx until an access to a in state want that startMiss
// gave tk should probe the cache again.
func (c *Ctrl) waitTicket(ctx *sim.Context, tk FillTicket, a Addr, want LState) {
	ctx.RunStep(&ticketWait{c: c, x: Access{A: a, Want: want, tk: tk}})
}
