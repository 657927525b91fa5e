package mem

import (
	"fmt"

	"alewife/internal/mesh"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Fabric owns the memory system of a whole machine: the store, one
// controller per node, and the network they share. It implements sim.Sink
// (see sink.go): every protocol message and directory continuation is a
// pooled closure-free event decoded by Fabric.Fire.
type Fabric struct {
	Eng   *sim.Engine
	Net   mesh.Network
	Store *Store
	// St counts protocol events, records them in its trace and charges
	// directory/memory pipeline occupancy to the home node's DirPipeline
	// overlay bucket.
	St    *stats.Machine
	Ctrls []*Ctrl
	// Check, when non-nil, validates protocol invariants after every state
	// transition (see LiveChecker); attach with AttachChecker.
	Check *LiveChecker
	// Fault, when non-nil, injects deliberate protocol mutations; used only
	// by the stress harness and the checker's regression tests.
	Fault *Fault

	// hwPointers is the number of hardware sharer pointers in a LimitLESS
	// directory entry; a further sharer overflows the entry to software.
	hwPointers int
}

// NewFabric wires up n controllers over the given network and store, with
// hwPointers hardware sharer pointers per directory entry. st may be nil.
func NewFabric(eng *sim.Engine, net mesh.Network, store *Store, hwPointers int,
	st *stats.Machine, cacheSets, cacheWays int) *Fabric {
	f := &Fabric{Eng: eng, Net: net, Store: store, St: st, hwPointers: hwPointers}
	n := net.Nodes()
	f.Ctrls = make([]*Ctrl, n)
	for i := 0; i < n; i++ {
		f.Ctrls[i] = &Ctrl{
			f:     f,
			node:  i,
			cache: NewCache(cacheSets, cacheWays),
			dir:   dirTab{base: Addr(uint64(i) * store.wordsPer)},
			txns:  make([]*txn, 0, txnLimit),
		}
	}
	return f
}

// steal books cyc cycles of LimitLESS software trap to node's processor,
// which pays them at its next Flush. A zero charge counts nothing: even a
// zero Add would give the counter a key in every snapshot.
func (f *Fabric) steal(node int, cyc uint64) {
	if cyc > 0 {
		f.Ctrls[node].trapOwed += cyc
		f.St.Add(node, stats.DirSWTrapCycles, int64(cyc))
	}
}

// ---------------------------------------------------------------------------
// Directory state.

type dirState uint8

const (
	dIdle dirState = iota
	dShared
	dExcl
	dPendR   // recall in flight for a read request
	dPendW   // recall in flight for a write request
	dPendInv // invalidation acks being collected for a write request
)

type dreq struct {
	write bool
	from  int
}

// dirEntry is one line's directory state at its home. A run keeps about a
// million of them, so the entry stays at 48 bytes (TestDirEntrySize): node
// numbers are int32, and the deferred-request queue, which few entries ever
// use, sits behind a pointer.
type dirEntry struct {
	sharers []int
	// wait is the FIFO of requests parked behind a transient state,
	// allocated on the entry's first deferral and kept after it drains.
	wait     *dirWait
	owner    int32
	pendFrom int32
	pendAcks int32
	state    dirState
	overflow bool
	// ovReserved records that the entry's first overflow has reserved the
	// range of the software overflow pointer array in home memory. Nothing
	// is written there: the sharer set stays in sharers, and the trap's
	// cost is charged as cycles. The reservation keeps every later address
	// where it would be, and is made once per entry.
	ovReserved bool
}

// dirWait is a deferred-request FIFO, consumed from head so the backing
// array's capacity survives drain/refill cycles instead of being resliced
// away.
type dirWait struct {
	reqs []dreq
	head int
}

func (e *dirEntry) hasSharer(n int) bool {
	for _, s := range e.sharers {
		if s == n {
			return true
		}
	}
	return false
}

func (e *dirEntry) dropSharer(n int) {
	for i, s := range e.sharers {
		if s == n {
			e.sharers = append(e.sharers[:i], e.sharers[i+1:]...)
			return
		}
	}
}

// park queues a request behind the entry's transient state.
func (e *dirEntry) park(write bool, from int) {
	if e.wait == nil {
		e.wait = new(dirWait)
	}
	e.wait.reqs = append(e.wait.reqs, dreq{write: write, from: from})
}

// numDeferred reports the requests still parked on the entry.
func (e *dirEntry) numDeferred() int {
	if e.wait == nil {
		return 0
	}
	return len(e.wait.reqs) - e.wait.head
}

// ---------------------------------------------------------------------------
// Requester-side transactions.

// txn is one outstanding fill at a requester. Records are pooled per
// controller: retirement bumps gen, resets the embedded gate, and pushes the
// record onto a free list for the next miss, so the protocol's most frequent
// allocation disappears in steady state. FillTickets carry the gen they were
// issued at, which makes a ticket held across a yield safe against reuse.
type txn struct {
	line     Addr
	want     LState
	gate     sim.Gate
	prefetch bool
	gen      uint64
	next     *txn // free-list link
}

// Ctrl is one node's cache controller and directory controller combined
// (they share the CMMU on Alewife). All handler methods run as engine
// events; context methods (Read/Write/...) run on the caller's context.
type Ctrl struct {
	f    *Fabric
	node int

	cache *Cache

	// Directory for lines whose home is this node: a page table indexed by
	// the line's offset in this node's memory (see dirtab.go).
	dir       dirTab
	dirFreeAt sim.Time // memory/directory occupancy

	// Outstanding requests from this node: at most txnLimit live records,
	// linear-scanned (the limit is tiny), recycled through txnFree.
	txns    []*txn
	txnFree *txn
	// txnFreed is fired whenever a transaction retires while someone is
	// stalled on a full transaction buffer.
	txnFreed      sim.Gate
	txnFreedArmed bool

	// Cycles this node's processor owes for work done on its behalf at
	// interrupt level: LimitLESS directory traps (booked by the fabric) and
	// message handlers (booked by the CMMU). Its next Flush takes both.
	trapOwed    uint64
	handlerOwed uint64
}

// Cache exposes the tag array for tests and DMA.
func (c *Ctrl) Cache() *Cache { return c.cache }

// StealHandler books cycles a message handler took from this node's
// processor; its next Flush pays them.
func (c *Ctrl) StealHandler(cycles uint64) { c.handlerOwed += cycles }

// TakeStolen returns the directory-trap and handler cycles booked against
// this node's processor since the last call, and clears both.
func (c *Ctrl) TakeStolen() (trap, handler uint64) {
	trap, handler = c.trapOwed, c.handlerOwed
	c.trapOwed, c.handlerOwed = 0, 0
	return trap, handler
}

// LineState reports this node's cached state for a (tests, assertions).
func (c *Ctrl) LineState(a Addr) LState { return c.cache.State(a) }

// DirInfo reports directory state for a home line (tests).
func (c *Ctrl) DirInfo(a Addr) (state string, sharers int, owner int, overflow bool) {
	e := c.dir.get(a.Line())
	if e == nil {
		return "idle", 0, -1, false
	}
	return dirStateName(e.state), len(e.sharers), int(e.owner), e.overflow
}

func (c *Ctrl) home(a Addr) int { return c.f.Store.Home(a) }

// findTxn returns the outstanding transaction for line, if any. The active
// list holds at most txnLimit records, so a linear scan beats any hashing.
func (c *Ctrl) findTxn(line Addr) *txn {
	for _, t := range c.txns {
		if t.line == line {
			return t
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fast (hit) paths. These charge nothing themselves; the processor layer
// accounts hit cycles in its run-ahead accumulator.

// FastRead reports whether a read of a hits in this node's cache and
// touches LRU if so.
//
//alewife:engine-only
func (c *Ctrl) FastRead(a Addr) bool {
	if c.cache.Touch(a, Shared) {
		c.f.St.Inc(c.node, stats.CacheHits)
		return true
	}
	return false
}

// FastWrite reports whether a write to a hits exclusively and touches LRU.
//
//alewife:engine-only
func (c *Ctrl) FastWrite(a Addr) bool {
	if c.cache.Touch(a, Exclusive) {
		c.f.St.Inc(c.node, stats.CacheHits)
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Slow (miss) paths, called on a processor context already synchronized
// with engine time.

// Access is one processor access on the miss path: the word, the state it
// needs, and the ticket of its last probe. Begin starts it and Finish
// waits it out, and Read, Write and AcquireExclusive are the two in a
// row. Between them, the processor can park on the fill inside the
// dispatch loop, as an AtWake step of the flush before the access (see
// machine.Proc.FlushThen), which saves the switches of resuming it only
// to begin the access.
type Access struct {
	A    Addr
	Want LState
	// Atomic asks for the line held exclusively right now, for a
	// read-modify-write (AcquireExclusive); Want must be Exclusive.
	Atomic bool

	tk FillTicket
	// recheck: an atomic access whose first probe missed probes once
	// more when its miss loop ends.
	recheck bool
}

// Begin probes the cache for x and, on a miss, joins or issues the fill
// (startMiss), without blocking. It returns the ticket Finish waits on,
// which the caller may also Park on.
//
//alewife:hotpath
func (c *Ctrl) Begin(x *Access) FillTicket {
	x.recheck = false
	if x.Atomic {
		if c.cache.Touch(x.A, Exclusive) {
			x.tk = FillTicket{}
			return x.tk
		}
		x.recheck = true
	}
	x.tk = c.startMiss(x.A, x.Want)
	return x.tk
}

// Finish stalls ctx until the access Begin started can complete: it waits
// on the ticket and probes again until the probe hits. A ticket parked on
// and since retired returns at once. An atomic access ends only on a hit
// of one more probe, so that no coherence action comes between it and the
// caller's read-modify-write (the engine runs no events between Finish's
// return and the caller's next yield).
//
//alewife:engine-only
func (c *Ctrl) Finish(ctx *sim.Context, x *Access) {
	for {
		for !x.tk.Hit() {
			x.tk.Wait(ctx)
			x.tk = c.startMiss(x.A, x.Want)
		}
		if !x.recheck || c.cache.Touch(x.A, Exclusive) {
			return
		}
		x.tk = c.startMiss(x.A, x.Want)
	}
}

// Read stalls ctx until the line containing a is readable in this node's
// cache. The caller loads the value from the store afterwards.
//
//alewife:engine-only
func (c *Ctrl) Read(ctx *sim.Context, a Addr) {
	x := Access{A: a, Want: Shared}
	c.Begin(&x)
	c.Finish(ctx, &x)
}

// Write stalls ctx until this node holds the line exclusively; the caller
// then stores through to the Store. The exclusivity can in principle be
// lost again in the same cycle; plain stores don't care (their value is
// carried by the protocol), atomic sequences use AcquireExclusive.
//
//alewife:engine-only
func (c *Ctrl) Write(ctx *sim.Context, a Addr) {
	x := Access{A: a, Want: Exclusive}
	c.Begin(&x)
	c.Finish(ctx, &x)
}

// AcquireExclusive stalls ctx until a write to a hits exclusively *right
// now*, so the caller can perform a read-modify-write without any
// intervening coherence action.
//
//alewife:engine-only
func (c *Ctrl) AcquireExclusive(ctx *sim.Context, a Addr) {
	x := Access{A: a, Want: Exclusive, Atomic: true}
	c.Begin(&x)
	c.Finish(ctx, &x)
}

// FillTicket is startMiss's handle on what a missed access waits for
// before it probes the cache again; the zero ticket means the access hit.
// Finish waits on a ticket its processor may already have parked on
// (Park), so a ticket may be waited on after its wait is over. A fill
// ticket carries its pooled record's generation, and Wait returns at once
// if the fill has retired. A buffer-full ticket waits for a free slot,
// probes the cache again (another context on the node may have filled the
// line, and for an Exclusive line the home would defer a second request
// forever), then joins or issues the fill and waits for it. A penalty
// ticket waits until a fixed time.
type FillTicket struct {
	kind ticketKind
	t    *txn     // fill: the transaction
	gen  uint64   // fill: t's generation at issue
	at   sim.Time // penalty: when the access may probe again
	c    *Ctrl    // buffer full: the controller, and the access to fill
	a    Addr
	want LState
}

type ticketKind uint8

const (
	tkHit ticketKind = iota
	tkFill
	tkPenalty
	tkFull
)

// Hit reports that the access needs no wait at all.
func (tk FillTicket) Hit() bool { return tk.kind == tkHit }

// Park adds ctx as a waiter on the ticket's fill, without blocking it,
// when that fill is still outstanding, and reports whether it did. Any
// other ticket (a hit, a prefetch penalty, a full buffer) or a retired
// fill reports false: the context resumes at once and Finish handles it.
//
//alewife:hotpath
func (tk FillTicket) Park(ctx *sim.Context) bool {
	return tk.kind == tkFill && tk.t.gen == tk.gen && tk.t.gate.Park(ctx)
}

// Wait parks ctx until the caller should probe the cache again.
func (tk FillTicket) Wait(ctx *sim.Context) {
	switch tk.kind {
	case tkFill:
		if tk.t.gen == tk.gen {
			tk.t.gate.Wait(ctx)
		}
	case tkPenalty:
		ctx.WaitUntil(tk.at)
	case tkFull:
		c := tk.c
		for len(c.txns) >= txnLimit {
			c.txnFreedArmed = true
			c.txnFreed.Wait(ctx)
		}
		if !c.cache.Touch(tk.a, tk.want) {
			c.fill(tk.a.Line(), tk.want).Wait(ctx)
		}
	}
}

// startMiss probes this node's cache for the line containing a in state
// want. On a miss it counts the miss (or the upgrade) and joins or issues
// the fill without blocking, and returns the ticket to wait on before
// probing again; Begin and Finish loop on it until a Hit ticket.
//
//alewife:engine-only
func (c *Ctrl) startMiss(a Addr, want LState) FillTicket {
	if c.cache.Touch(a, want) {
		return FillTicket{}
	}
	if want == Exclusive && c.cache.State(a) == Shared {
		c.f.St.Inc(c.node, stats.CacheUpgrades)
		if c.cache.Prefetched(a) {
			// The copy sits in the transaction store: retire it and
			// re-issue the write after the penalty (Alewife
			// prefetch-then-write artifact).
			c.cache.SetPrefetched(a, false)
			return FillTicket{kind: tkPenalty, at: c.f.Eng.Now() + prefetchWritePenalty}
		}
	} else {
		c.f.St.Inc(c.node, stats.CacheMisses)
	}
	line := a.Line()
	if len(c.txns) >= txnLimit && c.findTxn(line) == nil {
		// The miss is counted here once, however long the ticket waits.
		return FillTicket{kind: tkFull, c: c, a: a, want: want}
	}
	return c.fill(line, want)
}

// fill joins the outstanding transaction for line, or issues one, and
// returns the ticket that waits for it. An upgrade that joins a shared fill
// waits for that fill and probes again.
func (c *Ctrl) fill(line Addr, want LState) FillTicket {
	t := c.findTxn(line)
	if t == nil {
		t = c.start(line, want, false)
	} else if t.prefetch {
		t.prefetch = false
		c.f.St.Inc(c.node, stats.PrefetchUseful)
	}
	return FillTicket{kind: tkFill, t: t, gen: t.gen}
}

// Prefetch issues a non-binding prefetch for the line containing a; excl
// requests an exclusive (write) prefetch. It never blocks; when the
// transaction buffer is full the prefetch is dropped, as on Alewife.
//
//alewife:engine-only
func (c *Ctrl) Prefetch(a Addr, excl bool) {
	line := a.Line()
	want := Shared
	if excl {
		want = Exclusive
	}
	st := c.cache.State(a)
	if st == Exclusive || (st == Shared && !excl) {
		return // already satisfied
	}
	if c.findTxn(line) != nil {
		return // already in flight
	}
	if len(c.txns) >= txnLimit {
		return // buffer full: drop
	}
	c.f.St.Inc(c.node, stats.Prefetches)
	c.start(line, want, true)
}

// start creates the transaction and fires the request at the home.
func (c *Ctrl) start(line Addr, want LState, prefetch bool) *txn {
	c.f.St.Emit(c.f.Eng.Now(), c.node, trace.KMiss, uint64(line))
	t := c.txnFree
	if t != nil {
		c.txnFree = t.next
		t.next = nil
	} else {
		t = &txn{}
	}
	t.line, t.want, t.prefetch = line, want, prefetch
	c.txns = append(c.txns, t)
	h := c.home(line)
	op := opReq | uint32(h)<<opNodeShift
	if want == Exclusive {
		op |= flagWrite
	}
	eng := c.f.Eng
	if h == c.node {
		// Local miss: no network; straight into the directory pipeline
		// after the requester-side issue cost.
		eng.AtSink(eng.Now()+localMiss, c.f, op, uint64(line), uint64(c.node))
	} else {
		c.f.St.Inc(c.node, stats.ProtoMsgs)
		c.f.Net.SendMsg(c.node, h, reqBytes, eng.Now()+localMiss,
			c.f, op, uint64(line), uint64(c.node))
	}
	return t
}

// grantArrive completes a transaction at the requester.
func (c *Ctrl) grantArrive(line Addr, granted LState) {
	ti := -1
	for i, t := range c.txns {
		if t.line == line {
			ti = i
			break
		}
	}
	if ti < 0 {
		panic(fmt.Sprintf("mem: node %d grant for line %#x with no transaction", c.node, uint64(line)))
	}
	t := c.txns[ti]
	c.f.St.Emit(c.f.Eng.Now(), c.node, trace.KFill, uint64(line))
	victim, vstate := c.cache.Insert(line, granted)
	if vstate == Exclusive {
		c.writeback(victim)
	} else if vstate == Shared {
		c.f.St.Inc(c.node, stats.CacheEvictions)
	}
	c.cache.SetPrefetched(line, t.prefetch && granted == Shared)
	c.txns = append(c.txns[:ti], c.txns[ti+1:]...)
	t.gate.Fire()
	// Retire the record into the pool: the gen bump invalidates any ticket
	// still holding it, and the gate is reset for its next transaction.
	t.gen++
	t.gate.Reset()
	t.next = c.txnFree
	c.txnFree = t
	if c.txnFreedArmed {
		c.txnFreedArmed = false
		c.txnFreed.Fire()
		c.txnFreed.Reset()
	}
	c.f.Check.event(trace.KFill, c.node, line)
}

// writeback sends a dirty victim home.
func (c *Ctrl) writeback(line Addr) {
	c.f.St.Event(c.node, stats.CacheWritebacks, c.f.Eng.Now(), trace.KWriteback, uint64(line))
	c.f.Check.wbSent(c.node, line)
	if c.f.Fault.dropWriteback() {
		return
	}
	h := c.home(line)
	if h == c.node {
		c.f.Ctrls[h].wbArrive(line, c.node)
		return
	}
	c.f.St.Inc(c.node, stats.ProtoMsgs)
	c.f.Net.SendMsg(c.node, h, dataBytes, c.f.Eng.Now(),
		c.f, opWB|uint32(h)<<opNodeShift, uint64(line), uint64(c.node))
}

// ---------------------------------------------------------------------------
// Home-side directory machine. Every entry mutation happens inside an
// engine event at the home node, serialized by dirFreeAt occupancy.

func (c *Ctrl) entry(line Addr) *dirEntry {
	return c.dir.getOrCreate(line)
}

// reqArrive handles an RREQ/WREQ at the home.
func (c *Ctrl) reqArrive(line Addr, from int, write bool) {
	e := c.entry(line)
	if e.overflow {
		// LimitLESS: an overflowed entry is handled entirely in software —
		// every request on it traps the home processor.
		c.f.steal(c.node, trapCycles)
		c.dirFreeAt += trapCycles
	}
	switch e.state {
	case dPendR, dPendW, dPendInv:
		e.park(write, from)
		return
	case dExcl:
		if int(e.owner) == from {
			// The owner's writeback must be in flight; serve after it lands.
			e.park(write, from)
			return
		}
	}
	if write {
		c.serveWrite(line, e, from)
	} else {
		c.serveRead(line, e, from)
	}
}

func (c *Ctrl) serveRead(line Addr, e *dirEntry, from int) {
	switch e.state {
	case dIdle:
		sw := c.addSharer(e, from)
		e.state = dShared
		c.occupyOp(dirCycles+memCycles+sw, opDirGrant|flagData, line, from)
	case dShared:
		sw := c.addSharer(e, from)
		c.occupyOp(dirCycles+memCycles+sw, opDirGrant|flagData, line, from)
	case dExcl:
		e.state = dPendR
		e.pendFrom = int32(from)
		c.occupyOp(dirCycles, opDirRecall, line, int(e.owner))
	default:
		panic("mem: serveRead on transient entry")
	}
	c.f.Check.event(trace.KMiss, c.node, line)
}

func (c *Ctrl) serveWrite(line Addr, e *dirEntry, from int) {
	defer c.f.Check.event(trace.KMiss, c.node, line)
	switch e.state {
	case dIdle:
		e.state = dExcl
		e.owner = int32(from)
		if c.f.Fault.wrongOwner() {
			e.owner = int32((from + 1) % len(c.f.Ctrls))
		}
		e.sharers = e.sharers[:0]
		e.overflow = false
		c.occupyOp(dirCycles+memCycles, opDirGrant|flagExcl|flagData, line, from)
	case dShared:
		// Invalidate every sharer except the writer; grant when acked.
		targets := 0
		for _, s := range e.sharers {
			if s != from {
				targets++
			}
		}
		if targets == 0 || c.f.Fault.skipInval() {
			// Lone sharer upgrading: grant without data.
			e.state = dExcl
			e.owner = int32(from)
			e.sharers = e.sharers[:0]
			e.overflow = false
			c.occupyOp(dirCycles, opDirGrant|flagExcl, line, from)
			return
		}
		sw := uint64(0)
		if e.overflow {
			// Software walks the overflowed sharer list.
			sw = uint64(targets) * swInvalCycles
			c.f.steal(c.node, sw)
		}
		hadLine := e.hasSharer(from)
		e.state = dPendInv
		e.pendFrom = int32(from)
		e.pendAcks = int32(targets)
		// Remember whether the grant needs data once acks are in.
		e.owner = -1
		if hadLine {
			e.owner = int32(from) // sentinel: upgrade, no data needed
		}
		c.f.St.Inc(c.node, stats.ProtoInvals)
		// The fan-out recomputes its target list (sharers minus pendFrom) at
		// slot-start; dPendInv freezes the sharer list until then.
		c.occupyOp(dirCycles+sw, opDirFanout, line, 0)
	case dExcl:
		e.state = dPendW
		e.pendFrom = int32(from)
		c.occupyOp(dirCycles, opDirRecall|flagWrite, line, int(e.owner))
	default:
		panic("mem: serveWrite on transient entry")
	}
}

// addSharer records a reader, returning extra software cycles if the entry
// overflows its hardware pointers (LimitLESS). The first overflow traps to
// empty the hardware pointers into a software array in home memory;
// afterwards every pointer insert traps too.
func (c *Ctrl) addSharer(e *dirEntry, n int) (sw uint64) {
	if c.f.Fault.forgetSharer() {
		return 0
	}
	if e.hasSharer(n) {
		return 0
	}
	e.sharers = append(e.sharers, n)
	if len(e.sharers) <= c.f.hwPointers {
		return 0
	}
	if !e.overflow {
		e.overflow = true
		c.f.St.Inc(c.node, stats.DirOverflows)
		if !e.ovReserved {
			e.ovReserved = true
			c.f.Store.AllocOn(c.node, uint64(c.f.Net.Nodes()))
		}
		sw = trapCycles + uint64(len(e.sharers))*swInvalCycles
		c.f.steal(c.node, sw)
		return sw
	}
	// Already in software: one trap per insert.
	sw = trapCycles
	c.f.steal(c.node, sw)
	return sw
}

// sendGrant delivers a fill/upgrade grant to the requester at time `at`.
func (c *Ctrl) sendGrant(line Addr, to int, st LState, withData bool, at sim.Time) {
	bytes := ctlBytes
	if withData {
		bytes = dataBytes
	}
	op := opGrant | uint32(to)<<opNodeShift
	if st == Exclusive {
		op |= flagExcl
	}
	if to == c.node {
		c.f.Eng.AtSink(at, c.f, op, uint64(line), 0)
		return
	}
	c.f.St.Inc(c.node, stats.ProtoMsgs)
	c.f.Net.SendMsg(c.node, to, bytes, at, c.f, op, uint64(line), 0)
}

// invArrive handles an invalidation at a sharer. Acks go back to the home
// even when the line was silently evicted (the directory pointer was stale).
func (c *Ctrl) invArrive(line Addr) {
	c.f.St.Emit(c.f.Eng.Now(), c.node, trace.KInval, uint64(line))
	if !c.f.Fault.dropInval() {
		c.cache.SetState(line, Invalid)
	}
	c.f.Check.event(trace.KInval, c.node, line)
	h := c.home(line)
	if h == c.node {
		c.f.Ctrls[h].invAckArrive(line, c.node)
		return
	}
	c.f.St.Inc(c.node, stats.ProtoMsgs)
	c.f.Net.SendMsg(c.node, h, ctlBytes, c.f.Eng.Now(),
		c.f, opInvAck|uint32(h)<<opNodeShift, uint64(line), uint64(c.node))
}

// invAckArrive counts acks at the home; the last one triggers the grant.
func (c *Ctrl) invAckArrive(line Addr, from int) {
	e := c.entry(line)
	if e.state != dPendInv {
		panic(fmt.Sprintf("mem: stray invack for %#x in state %d", uint64(line), e.state))
	}
	e.dropSharer(from)
	e.pendAcks--
	if e.pendAcks > 0 {
		c.f.Check.event(trace.KInval, c.node, line)
		return
	}
	to := int(e.pendFrom)
	withData := int(e.owner) != to // owner sentinel: == to means pure upgrade
	e.state = dExcl
	e.owner = e.pendFrom
	e.sharers = e.sharers[:0]
	e.overflow = false
	busy := uint64(dirCycles)
	op := opDirGrant | flagExcl
	if withData {
		busy += memCycles
		op |= flagData
	}
	c.occupyOp(busy, op, line, to)
	c.settle(line)
	c.f.Check.event(trace.KInval, c.node, line)
}

// recallArrive handles a recall at the (supposed) owner. forWrite recalls
// invalidate; read recalls downgrade to Shared. If the line is gone the
// owner's writeback is already in flight and will resolve the home's
// pending state, so nothing is sent.
func (c *Ctrl) recallArrive(line Addr, forWrite bool) {
	c.f.St.Emit(c.f.Eng.Now(), c.node, trace.KRecall, uint64(line))
	st := c.cache.State(line)
	if st == Invalid {
		return // WB raced ahead of the recall
	}
	if forWrite {
		c.cache.SetState(line, Invalid)
	} else {
		c.cache.SetState(line, Shared)
	}
	c.f.Check.event(trace.KRecall, c.node, line)
	h := c.home(line)
	if h == c.node {
		c.f.Ctrls[h].recallDataArrive(line, c.node)
		return
	}
	c.f.St.Inc(c.node, stats.ProtoMsgs)
	c.f.Net.SendMsg(c.node, h, dataBytes, c.f.Eng.Now(),
		c.f, opRecallData|uint32(h)<<opNodeShift, uint64(line), uint64(c.node))
}

// recallDataArrive lands recalled data at the home and completes the
// pending request.
func (c *Ctrl) recallDataArrive(line Addr, from int) {
	e := c.entry(line)
	switch e.state {
	case dPendR:
		to := int(e.pendFrom)
		e.state = dShared
		e.sharers = e.sharers[:0]
		e.overflow = false
		e.sharers = append(e.sharers, from)
		sw := c.addSharer(e, to)
		e.owner = -1
		c.occupyOp(dirCycles+memCycles+sw, opDirGrant|flagData, line, to)
	case dPendW:
		to := int(e.pendFrom)
		e.state = dExcl
		e.owner = e.pendFrom
		e.sharers = e.sharers[:0]
		e.overflow = false
		c.occupyOp(dirCycles+memCycles, opDirGrant|flagExcl|flagData, line, to)
	default:
		panic(fmt.Sprintf("mem: recall data for %#x in state %d", uint64(line), e.state))
	}
	c.settle(line)
	c.f.Check.event(trace.KRecall, c.node, line)
}

// wbArrive handles an eviction writeback (or a writeback racing a recall).
func (c *Ctrl) wbArrive(line Addr, from int) {
	c.f.Check.wbLanded(from, line)
	e := c.entry(line)
	switch e.state {
	case dExcl:
		if int(e.owner) != from {
			panic(fmt.Sprintf("mem: WB for %#x from %d but owner %d", uint64(line), from, e.owner))
		}
		e.state = dIdle
		if c.f.Fault.wbToShared() {
			e.state = dShared
		}
		e.owner = -1
		c.occupyOp(memCycles, opDirNop, line, 0)
		c.settle(line)
		c.f.Check.event(trace.KWriteback, c.node, line)
	case dPendR, dPendW:
		// The recall will find nothing at the old owner; this WB carries
		// the data instead.
		c.recallDataArrive(line, from)
	default:
		panic(fmt.Sprintf("mem: WB for %#x in state %d", uint64(line), e.state))
	}
}

// settle re-dispatches one deferred request if the entry is stable again.
func (c *Ctrl) settle(line Addr) {
	e := c.entry(line)
	for e.numDeferred() > 0 {
		switch e.state {
		case dPendR, dPendW, dPendInv:
			return
		}
		w := e.wait
		d := w.reqs[w.head]
		if e.state == dExcl && int(e.owner) == d.from {
			// Still waiting for that node's writeback.
			return
		}
		w.head++
		if w.head == len(w.reqs) {
			w.reqs = w.reqs[:0]
			w.head = 0
		}
		if d.write {
			c.serveWrite(line, e, d.from)
		} else {
			c.serveRead(line, e, d.from)
		}
	}
}
