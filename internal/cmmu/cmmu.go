// Package cmmu models Alewife's Communications and Memory-Management Unit
// network interface: user-level messages sent by a describe-then-launch
// sequence (Figure 5 of the paper: explicit operands followed by
// address-length pairs gathered by DMA), and received through an interrupt
// that exposes the packet in a window, with storeback instructions that
// discard words or scatter them to memory by DMA.
package cmmu

import (
	"fmt"

	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// The network-interface cost model, in processor cycles and bytes.
const (
	describeCycles  = 1  // per descriptor word written to the CMMU
	launchCycles    = 1  // the atomic launch instruction
	headerBytes     = 8  // wire overhead per packet
	interruptEntry  = 5  // cycles to enter a message handler (paper: 5)
	windowReadCycle = 1  // per packet word examined by the handler
	storebackSetup  = 2  // per storeback instruction issued
	maxOperands     = 16 // descriptor limit (paper: 16-word descriptor)
)

// Region names a block of memory for DMA gather/scatter.
type Region struct {
	Base  mem.Addr
	Words uint64
}

// Descriptor describes an outgoing message: a type, a destination, up to 16
// explicit operand words, and any number of address-length pairs whose
// memory contents are concatenated to the packet.
type Descriptor struct {
	Type    int
	Dst     int
	Ops     []uint64
	Regions []Region
}

// Env is a received message as seen by a handler. Handlers run atomically
// at interrupt level; cycles they consume are charged to the receiving
// processor (stolen) and serialize the input port.
//
// Envs are pooled per receiving CMMU: a packet in flight is a pooled mesh
// event carrying the Env's id, and the record (with its operand and data
// arrays) is recycled once its handler has run. Operands and gathered data
// are copied into the Env at injection time — which is also when the
// hardware commits the packet contents — so a sender may reuse its
// descriptor buffers immediately after Send returns.
type Env struct {
	Type int
	Src  int
	Ops  []uint64
	Data []uint64 // gathered region contents, flattened

	id     int // index in the owning CMMU's arena
	cm     *CMMU
	cycles uint64
}

// Elapse charges handler compute cycles.
func (e *Env) Elapse(n uint64) { e.cycles += n }

// ReadOps charges the cost of examining n words in the receive window.
func (e *Env) ReadOps(n int) { e.cycles += uint64(n) * windowReadCycle }

// Storeback scatters words from the packet body to memory at base,
// charging the storeback issue and the coherence cycles of invalidating
// overlapping lines in the local cache (destination-coherent transfer).
// The scattered words themselves cost the handler nothing: the DMA engine
// drains concurrently with reception.
func (e *Env) Storeback(base mem.Addr, words []uint64) {
	e.cycles += storebackSetup
	e.cycles += e.cm.ctrl.DMAInvalidate(base, uint64(len(words)))
	for i, w := range words {
		e.cm.store.Write(base+mem.Addr(i), w)
	}
	e.cm.st.Add(e.cm.node, stats.DMAWords, int64(len(words)))
}

// Reply sends a message from inside the handler (interrupt level), charging
// the describe/launch cost to the handler.
func (e *Env) Reply(d Descriptor) {
	e.cycles += e.cm.sendCost(d)
	e.cm.inject(d, e.cm.eng.Now()+e.cycles)
}

// Now returns the current simulation time.
func (e *Env) Now() sim.Time { return e.cm.eng.Now() }

// Handler processes one received message.
type Handler func(*Env)

// CMMU is one node's network interface.
type CMMU struct {
	node     int
	eng      *sim.Engine
	net      mesh.Network
	store    *mem.Store
	ctrl     *mem.Ctrl
	st       *stats.Machine // counts, traces and profiles this node's messages
	handlers map[int]Handler

	peers []*CMMU

	// Check, when non-nil, validates delivery discipline (see Checker).
	Check *Checker
	// Fault, when non-nil, injects delivery mutations for checker tests.
	Fault *Fault

	masked   bool
	queued   []*Env
	rxFreeAt sim.Time

	// Env arena: every Env this node has ever received lives in envs,
	// addressed by id; envFree lists the recycled ones. In-flight packets
	// travel through the mesh as pooled events carrying just the id.
	envs    []*Env
	envFree []int
}

// opEnvArrive is the only event kind a CMMU sinks: p0 is the Env id.
const opEnvArrive uint32 = 0

// Fire implements sim.Sink: a packet arrival (or a port-free retry) for the
// identified Env.
//
//alewife:hotpath
func (c *CMMU) Fire(op uint32, p0, p1 uint64) {
	c.arrive(c.envs[p0])
}

// getEnv hands out a pooled Env, retaining its buffers' capacity.
func (c *CMMU) getEnv() *Env {
	if n := len(c.envFree); n > 0 {
		e := c.envs[c.envFree[n-1]]
		c.envFree = c.envFree[:n-1]
		return e
	}
	e := &Env{id: len(c.envs)}
	c.envs = append(c.envs, e)
	return e
}

func (c *CMMU) putEnv(e *Env) {
	c.envFree = append(c.envFree, e.id)
}

// SetPeers wires this CMMU to every node's interface (including its own) so
// outbound packets can find their destination. The machine layer calls it
// once after constructing all interfaces.
func (c *CMMU) SetPeers(all []*CMMU) { c.peers = all }

// New builds a CMMU for one node; ctrl is the node's cache controller,
// which also books the cycles handlers take from the node's processor. st
// may be nil.
func New(node int, eng *sim.Engine, net mesh.Network, store *mem.Store,
	ctrl *mem.Ctrl, st *stats.Machine) *CMMU {
	return &CMMU{
		node: node, eng: eng, net: net, store: store, ctrl: ctrl,
		st: st, handlers: make(map[int]Handler),
	}
}

// Register installs the handler for a message type. Types are small ints
// owned by the runtime system.
//
//alewife:engine-only
func (c *CMMU) Register(msgType int, h Handler) {
	if _, dup := c.handlers[msgType]; dup {
		panic(fmt.Sprintf("cmmu: duplicate handler for message type %d", msgType))
	}
	c.handlers[msgType] = h
}

// SendCost returns the processor cycles consumed by describe+launch for d;
// the machine layer charges them to the sending processor.
func (c *CMMU) SendCost(d Descriptor) uint64 { return c.sendCost(d) }

func (c *CMMU) sendCost(d Descriptor) uint64 {
	words := 1 + len(d.Ops) + 2*len(d.Regions) // dest/type word, operands, addr-len pairs
	return uint64(words)*describeCycles + launchCycles
}

// Send validates and injects a message, departing at time `at` (typically
// the sender's current logical time plus SendCost). The packet gathers
// region contents from memory at injection; source-coherence flush cycles
// are charged to the injection time, not the processor.
//
//alewife:engine-only
func (c *CMMU) Send(d Descriptor, at sim.Time) {
	if len(d.Ops) > maxOperands {
		panic(fmt.Sprintf("cmmu: %d operands exceeds descriptor limit %d", len(d.Ops), maxOperands))
	}
	if d.Dst < 0 || d.Dst >= c.net.Nodes() {
		panic(fmt.Sprintf("cmmu: bad destination %d", d.Dst))
	}
	c.inject(d, at)
}

func (c *CMMU) inject(d Descriptor, at sim.Time) {
	dst := c.peers[d.Dst]
	env := dst.getEnv()
	env.Type, env.Src = d.Type, c.node
	env.Ops = append(env.Ops[:0], d.Ops...)
	env.Data = env.Data[:0]
	flush := uint64(0)
	for _, r := range d.Regions {
		flush += c.ctrl.DMAFlush(r.Base, r.Words)
		for i := uint64(0); i < r.Words; i++ {
			env.Data = append(env.Data, c.store.Read(r.Base+mem.Addr(i)))
		}
	}
	bytes := headerBytes + mem.WordBytes*(len(env.Ops)+len(env.Data))
	c.st.Add(c.node, stats.MsgWords, int64(len(env.Ops)+len(env.Data)))
	c.st.Event(c.node, stats.MsgsSent, at, trace.KMsgSend, uint64(d.Type))
	c.net.SendMsg(c.node, d.Dst, bytes, at+flush, dst, opEnvArrive, uint64(env.id), 0)
}

// MaskInterrupts defers message delivery until UnmaskInterrupts; Alewife
// software uses this around critical sections shared with handlers.
//
//alewife:engine-only
func (c *CMMU) MaskInterrupts() { c.masked = true }

// UnmaskInterrupts re-enables delivery and drains any queued messages.
//
//alewife:engine-only
func (c *CMMU) UnmaskInterrupts() {
	if !c.masked {
		return
	}
	c.masked = false
	q := c.queued
	c.queued = nil
	for _, env := range q {
		c.arrive(env)
	}
}

// Masked reports the interrupt mask state.
func (c *CMMU) Masked() bool { return c.masked }

// arrive runs at packet-arrival time (or at unmask/port-free time).
func (c *CMMU) arrive(env *Env) {
	if c.masked && !c.Fault.drainMasked() {
		c.queued = append(c.queued, env)
		return
	}
	now := c.eng.Now()
	if c.rxFreeAt > now {
		// Input port busy with an earlier packet's handler. Each deferral
		// charges its wait segment; segments sum to the packet's total
		// port-queueing delay. (Handler occupancy itself reaches the
		// profiler when the processor's Flush pays the controller's
		// handler counter.)
		c.st.Charge(c.node, metrics.MsgQueue, uint64(c.rxFreeAt-now))
		c.eng.AtSink(c.rxFreeAt, c, opEnvArrive, uint64(env.id), 0)
		return
	}
	h := c.handlers[env.Type]
	if h == nil {
		panic(fmt.Sprintf("cmmu: node %d has no handler for message type %d", c.node, env.Type))
	}
	c.st.Event(c.node, stats.MsgsRecv, now, trace.KMsgRecv, uint64(env.Type))
	c.Check.handlerStart(c, env.Type)
	env.cm = c
	env.cycles = interruptEntry
	h(env)
	c.Check.handlerEnd(c)
	total := env.cycles
	c.putEnv(env)
	c.rxFreeAt = now + total
	c.ctrl.StealHandler(total)
	c.st.Add(c.node, stats.IntStolenCycles, int64(total))
}
