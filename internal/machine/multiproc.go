package machine

import (
	"fmt"

	"alewife/internal/mem"
	"alewife/internal/sim"
)

// SwitchCycles is Sparcle's rapid context-switch cost (about 14 cycles on
// Alewife: flush the pipeline, switch register frames).
const SwitchCycles = 14

// MultiProc models Sparcle's block multithreading: K hardware contexts on
// one node, exactly one running at a time. When the running context takes
// a remote-miss stall it hands the processor to another ready context
// (paying SwitchCycles) instead of idling, so communication latency
// overlaps with another thread's computation — the Alewife machine's
// latency-tolerance mechanism, complementary to the messages-vs-memory
// comparison of the paper.
type MultiProc struct {
	node    *Node
	ctxs    []*MPContext
	holder  *MPContext   // context currently owning the pipeline
	lastRan *MPContext   // who ran last (switch-cost accounting)
	ready   []*MPContext // contexts ready to run, FIFO
	live    int
	// Switches counts actual pipeline hand-offs (for tests and reports).
	Switches int
}

// MPContext is one hardware context of a multithreaded processor. It
// exposes the same operations as Proc, with stalls replaced by context
// switches.
type MPContext struct {
	P   *Proc // the underlying proc facade (Elapse, messages, prefetch...)
	mp  *MultiProc
	idx int
}

// SpawnMulti starts bodies[i] on hardware context i of the given node at
// time `at`. Context 0 begins with the pipeline; the rest run as stalls
// hand it over. The returned MultiProc is inspectable after Machine.Run.
//
//alewife:engine-only
func (m *Machine) SpawnMulti(node int, at sim.Time, bodies []func(*MPContext)) *MultiProc {
	if len(bodies) == 0 {
		panic("machine: SpawnMulti needs at least one context")
	}
	mp := &MultiProc{node: m.Nodes[node], live: len(bodies)}
	for i, body := range bodies {
		i, body := i, body
		c := &MPContext{mp: mp, idx: i}
		mp.ctxs = append(mp.ctxs, c)
		c.P = m.Spawn(node, at, fmt.Sprintf("hw%d", i), func(p *Proc) {
			c.acquireAtStart()
			body(c)
			p.Flush()
			mp.exit(c)
		})
	}
	return mp
}

// Contexts returns the number of hardware contexts.
func (mp *MultiProc) Contexts() int { return len(mp.ctxs) }

// take grants the pipeline to c, charging the switch-in cost if the
// pipeline last ran someone else.
func (mp *MultiProc) take(c *MPContext) {
	mp.holder = c
	if mp.lastRan != c {
		c.P.Elapse(SwitchCycles)
		mp.Switches++
		mp.lastRan = c
	}
}

// acquireAtStart gives context 0 the pipeline and parks the others until a
// switch reaches them.
func (c *MPContext) acquireAtStart() {
	mp := c.mp
	if mp.holder == nil && mp.lastRan == nil && c.idx == 0 {
		mp.holder = c
		mp.lastRan = c
		return
	}
	mp.ready = append(mp.ready, c)
	c.P.Ctx.Block()
	// Woken by grantNext: the pipeline is ours, switch cost already
	// charged by take.
}

// exit retires a finished context and passes the pipeline on.
func (mp *MultiProc) exit(c *MPContext) {
	mp.live--
	if mp.holder == c {
		mp.holder = nil
		mp.grantNext()
	}
}

// grantNext hands the pipeline to the next ready context, if any.
func (mp *MultiProc) grantNext() {
	if mp.holder != nil || len(mp.ready) == 0 {
		return
	}
	next := mp.ready[0]
	mp.ready = mp.ready[1:]
	mp.take(next)
	next.P.Ctx.Unblock()
}

// stall retires this context's pipeline work, hands the pipeline over
// while the fill is pending, and reacquires it after the fill lands. A
// ticket stays safe to wait on after its wait is over (see mem.FillTicket):
// if the fill retires while Flush is yielding below, Wait returns at once.
func (c *MPContext) stall(tk mem.FillTicket) {
	mp := c.mp
	c.P.Flush() // our cycles retire before anyone else runs
	mp.holder = nil
	mp.grantNext()
	tk.Wait(c.P.Ctx)
	// Fill done: reclaim the pipeline or queue for it.
	if mp.holder == nil {
		mp.take(c)
		return
	}
	mp.ready = append(mp.ready, c)
	c.P.Ctx.Block()
}

// ctrl returns the node's cache controller.
func (c *MPContext) ctrl() *mem.Ctrl { return c.mp.node.Ctrl }

// Elapse charges compute cycles to this context.
func (c *MPContext) Elapse(n uint64) { c.P.Elapse(n) }

// Read performs a shared-memory load, switching contexts on a miss.
func (c *MPContext) Read(a mem.Addr) uint64 {
	if ctrl := c.ctrl(); !ctrl.FastRead(a) {
		for tk := ctrl.StartMiss(a, mem.Shared); !tk.Hit(); tk = ctrl.StartMiss(a, mem.Shared) {
			c.stall(tk)
		}
	}
	c.P.Elapse(mem.CacheHit)
	return c.P.Store().Read(a)
}

// Write performs a shared-memory store, switching contexts on a miss.
func (c *MPContext) Write(a mem.Addr, v uint64) {
	if ctrl := c.ctrl(); !ctrl.FastWrite(a) {
		for tk := ctrl.StartMiss(a, mem.Exclusive); !tk.Hit(); tk = ctrl.StartMiss(a, mem.Exclusive) {
			c.stall(tk)
		}
	}
	c.P.Elapse(mem.CacheHit)
	c.P.Store().Write(a, v)
}

// ReadF is the float64 view of Read.
func (c *MPContext) ReadF(a mem.Addr) float64 { return f64(c.Read(a)) }

// WriteF is the float64 view of Write.
func (c *MPContext) WriteF(a mem.Addr, v float64) { c.Write(a, bits(v)) }

// Prefetch delegates to the underlying processor (never stalls).
func (c *MPContext) Prefetch(a mem.Addr, excl bool) { c.P.Prefetch(a, excl) }
