// Package swdsm synthesizes a shared address space in software over the
// message-passing interface alone — the implementation style the paper's
// Section 2.1 (and its Figure 1) argues is the best a traditional
// message-passing architecture can do, and why hardware support matters.
//
// Every reference executes the pseudocode of the paper's Figure 1 in
// software:
//
//	if currently-cached?(location)    // software cache lookup
//	    load-from-cache
//	elsif is-local-address?(location) // software local/remote check
//	    load-from-local-memory
//	else
//	    load-from-remote-memory       // request/reply messages + software
//	                                  // coherence at the home
//
// The protocol is a software MSI directory: the same states as the
// hardware fabric in internal/mem, but every action costs software
// instruction time — the per-reference check, hash-table cache lookups,
// handler-side directory manipulation — on top of the same network. The
// fig1 experiment measures exactly how much that software layer costs per
// reference, and what it does to an application.
package swdsm

import (
	"fmt"

	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
)

// The software-DSM cost model, in processor cycles: costs representative
// of a tuned software DSM on a 33 MHz processor (tens of cycles of
// instructions per event). They follow the paper's framing: even the hit
// path costs a software check and table lookup on every reference (the
// overhead "added to every shared-address space reference, even when no
// communication is necessary"). Lines are the hardware's mem.LineWords.
const (
	checkCycles       = 6  // the cached?/local? tests of Figure 1
	cacheLookup       = 10 // software cache (hash) probe on the hit path
	cacheInstall      = 24 // insert a line into the software cache
	localAccessCycles = 14 // software path to local memory
	handlerDir        = 30 // directory manipulation in a message handler
	handlerLookup     = 6  // sharer-set walk per sharer during invalidation
)

// Message types (registered on every node's CMMU).
const (
	msgRReq = iota + 200
	msgWReq
	msgGrant
	msgInv
	msgInvAck
	msgWB
)

type lstate uint8

const (
	lInvalid lstate = iota
	lShared
	lExclusive
)

type dstate uint8

const (
	dIdle dstate = iota
	dShared
	dExcl
	dPending
)

type dirEntry struct {
	state    dstate
	sharers  []int
	owner    int
	pendFrom int
	pendWr   bool
	pendAcks int
	deferred []request
}

type request struct {
	from  int
	write bool
}

// DSM is one software shared-address-space instance spanning a machine.
// It must be the machine's only user of its message types.
type DSM struct {
	M       *machine.Machine
	noCache bool // see New

	nodes []*nodeState
}

type nodeState struct {
	dsm *DSM
	id  int
	// Software cache: line -> state. Capacity is "as much local memory as
	// you give it"; software DSMs typically cache generously.
	cache map[mem.Addr]lstate
	// Software directory for lines homed here.
	dir map[mem.Addr]*dirEntry
	// Outstanding request gates by line.
	pending map[mem.Addr]*sim.Gate
}

// New builds a software DSM over m. The machine should not also be running
// hardware-coherent traffic on the same addresses (the two layers would
// disagree about timing, though values stay correct).
//
// With noCache every reference takes the full Figure 1 path to its home.
// The difference between that and the cached DSM is the value of caching
// even in software; the difference between the cached DSM and the
// hardware fabric is the value of doing it in hardware.
func New(m *machine.Machine, noCache bool) *DSM {
	d := &DSM{M: m, noCache: noCache}
	d.nodes = make([]*nodeState, m.Cfg.Nodes)
	for i := range d.nodes {
		ns := &nodeState{
			dsm:     d,
			id:      i,
			cache:   make(map[mem.Addr]lstate),
			dir:     make(map[mem.Addr]*dirEntry),
			pending: make(map[mem.Addr]*sim.Gate),
		}
		d.nodes[i] = ns
		ns.register(m.Nodes[i].CMMU)
	}
	return d
}

func (d *DSM) home(a mem.Addr) int { return d.M.Store.Home(a) }

// Read performs one shared-address-space load through the software layer.
func (d *DSM) Read(p *machine.Proc, a mem.Addr) uint64 {
	ns := d.nodes[p.ID()]
	line := a.Line()
	p.Elapse(checkCycles + cacheLookup)
	if !d.noCache && ns.cache[line] != lInvalid {
		return d.M.Store.Read(a)
	}
	if d.home(a) == p.ID() {
		// Local memory, but the software layer still had to find that out.
		p.Elapse(localAccessCycles)
		ns.localAccess(p, line, false)
		ns.dropIfUncached(p, line, false)
		return d.M.Store.Read(a)
	}
	ns.remoteMiss(p, line, false)
	ns.dropIfUncached(p, line, false)
	return d.M.Store.Read(a)
}

// dropIfUncached releases a just-used line in an uncached DSM: the copy is
// consumed immediately, and exclusive grants are written back so the home
// does not wait forever for an owner that keeps nothing.
func (ns *nodeState) dropIfUncached(p *machine.Proc, line mem.Addr, wasWrite bool) {
	d := ns.dsm
	if !d.noCache {
		return
	}
	delete(ns.cache, line)
	if !wasWrite {
		return
	}
	if d.home(line) == ns.id {
		e := ns.entry(line)
		if e.state == dExcl && e.owner == ns.id {
			e.state = dIdle
			e.owner = -1
		}
		return
	}
	p.SendMessage(cmmu.Descriptor{
		Type: msgWB,
		Dst:  d.home(line),
		Ops:  []uint64{uint64(line), uint64(ns.id)},
	})
}

// Write performs one shared-address-space store through the software layer.
func (d *DSM) Write(p *machine.Proc, a mem.Addr, v uint64) {
	ns := d.nodes[p.ID()]
	line := a.Line()
	p.Elapse(checkCycles + cacheLookup)
	if !d.noCache && ns.cache[line] == lExclusive {
		d.M.Store.Write(a, v)
		return
	}
	if d.home(a) == p.ID() {
		p.Elapse(localAccessCycles)
		ns.localAccess(p, line, true)
		d.M.Store.Write(a, v)
		ns.dropIfUncached(p, line, true)
		return
	}
	ns.remoteMiss(p, line, true)
	d.M.Store.Write(a, v)
	ns.dropIfUncached(p, line, true)
}

// localAccess runs the home-side directory transition for the local
// processor's own access, including any coherence messages it must send.
func (ns *nodeState) localAccess(p *machine.Proc, line mem.Addr, write bool) {
	// The local path reuses the handler-side state machine; if the entry
	// is busy or needs remote work, the processor waits like any client.
	for {
		e := ns.entry(line)
		if e.state == dPending {
			ns.waitLine(p, line)
			continue
		}
		if ns.serveLocal(p, line, e, write) {
			return
		}
		ns.waitLine(p, line)
	}
}

// serveLocal tries to satisfy a local access immediately; false means a
// remote transaction was started and the caller must wait.
func (ns *nodeState) serveLocal(p *machine.Proc, line mem.Addr, e *dirEntry, write bool) bool {
	switch e.state {
	case dIdle:
		if write {
			e.state = dExcl
			e.owner = ns.id
			ns.cache[line] = lExclusive
		} else {
			e.state = dShared
			e.addSharer(ns.id)
			ns.cache[line] = lShared
		}
		p.Elapse(cacheInstall)
		return true
	case dShared:
		if !write {
			e.addSharer(ns.id)
			ns.cache[line] = lShared
			p.Elapse(cacheInstall)
			return true
		}
		// Invalidate remote sharers, then take it exclusively.
		targets := e.dropOthers(ns.id)
		if len(targets) == 0 {
			e.state = dExcl
			e.owner = ns.id
			ns.cache[line] = lExclusive
			p.Elapse(cacheInstall)
			return true
		}
		e.state = dPending
		e.pendFrom = ns.id
		e.pendWr = true
		e.pendAcks = len(targets)
		for _, tgt := range targets {
			p.Elapse(handlerLookup)
			p.SendMessage(cmmu.Descriptor{Type: msgInv, Dst: tgt, Ops: []uint64{uint64(line)}})
		}
		return false
	case dExcl:
		if e.owner == ns.id {
			// We own it but the software cache forgot? Re-install.
			ns.cache[line] = lExclusive
			p.Elapse(cacheInstall)
			return true
		}
		// Recall from the remote owner: modelled as an invalidation (the
		// store is authoritative for values).
		e.state = dPending
		e.pendFrom = ns.id
		e.pendWr = write
		e.pendAcks = 1
		owner := e.owner
		p.SendMessage(cmmu.Descriptor{Type: msgInv, Dst: owner, Ops: []uint64{uint64(line)}})
		return false
	}
	return false
}

// remoteMiss sends a request to the home and blocks until the grant lands.
func (ns *nodeState) remoteMiss(p *machine.Proc, line mem.Addr, write bool) {
	d := ns.dsm
	for {
		if write && ns.cache[line] == lExclusive {
			return
		}
		if !write && ns.cache[line] != lInvalid {
			return
		}
		if g, busy := ns.pending[line]; busy {
			p.Flush()
			g.Wait(p.Ctx)
			continue
		}
		g := &sim.Gate{}
		ns.pending[line] = g
		t := msgRReq
		if write {
			t = msgWReq
		}
		p.SendMessage(cmmu.Descriptor{
			Type: t,
			Dst:  d.home(line),
			Ops:  []uint64{uint64(line), uint64(ns.id)},
		})
		p.Flush()
		g.Wait(p.Ctx)
	}
}

// waitLine blocks until the line's pending transaction completes.
func (ns *nodeState) waitLine(p *machine.Proc, line mem.Addr) {
	g, busy := ns.pending[line]
	if !busy {
		g = &sim.Gate{}
		ns.pending[line] = g
	}
	p.Flush()
	g.Wait(p.Ctx)
}

// release fires and clears the line's gate.
func (ns *nodeState) release(line mem.Addr) {
	if g, ok := ns.pending[line]; ok {
		delete(ns.pending, line)
		g.Fire()
	}
}

func (ns *nodeState) entry(line mem.Addr) *dirEntry {
	e := ns.dir[line]
	if e == nil {
		e = &dirEntry{state: dIdle, owner: -1}
		ns.dir[line] = e
	}
	return e
}

func (e *dirEntry) addSharer(n int) {
	for _, s := range e.sharers {
		if s == n {
			return
		}
	}
	e.sharers = append(e.sharers, n)
}

// dropOthers removes and returns every sharer except keep.
func (e *dirEntry) dropOthers(keep int) []int {
	var out []int
	kept := e.sharers[:0]
	for _, s := range e.sharers {
		if s == keep {
			kept = append(kept, s)
		} else {
			out = append(out, s)
		}
	}
	e.sharers = kept
	return out
}

// register installs the software protocol handlers on one node.
func (ns *nodeState) register(cm *cmmu.CMMU) {
	cm.Register(msgRReq, func(e *cmmu.Env) { ns.onReq(e, false) })
	cm.Register(msgWReq, func(e *cmmu.Env) { ns.onReq(e, true) })
	cm.Register(msgGrant, ns.onGrant)
	cm.Register(msgInv, ns.onInv)
	cm.Register(msgInvAck, ns.onInvAck)
	cm.Register(msgWB, ns.onWB)
}

// onReq runs at the home, entirely in software.
func (ns *nodeState) onReq(e *cmmu.Env, write bool) {
	e.ReadOps(2)
	e.Elapse(handlerDir)
	line := mem.Addr(e.Ops[0])
	from := int(e.Ops[1])
	ns.handleReq(e, line, from, write)
}

func (ns *nodeState) handleReq(e *cmmu.Env, line mem.Addr, from int, write bool) {
	ent := ns.entry(line)
	switch ent.state {
	case dPending:
		ent.deferred = append(ent.deferred, request{from: from, write: write})
	case dIdle:
		if write {
			ent.state = dExcl
			ent.owner = from
		} else {
			ent.state = dShared
			ent.addSharer(from)
		}
		ns.grant(e, line, from, write)
	case dShared:
		if !write {
			ent.addSharer(from)
			ns.grant(e, line, from, false)
			return
		}
		targets := ent.dropOthers(from)
		if len(targets) == 0 {
			ent.state = dExcl
			ent.owner = from
			ent.sharers = nil
			ns.grant(e, line, from, true)
			return
		}
		ent.state = dPending
		ent.pendFrom = from
		ent.pendWr = true
		ent.pendAcks = len(targets)
		for _, tgt := range targets {
			e.Elapse(handlerLookup)
			e.Reply(cmmu.Descriptor{Type: msgInv, Dst: tgt, Ops: []uint64{uint64(line)}})
		}
	case dExcl:
		if ent.owner == from {
			// Stale writeback race; serve after it lands.
			ent.deferred = append(ent.deferred, request{from: from, write: write})
			return
		}
		owner := ent.owner
		ent.state = dPending
		ent.pendFrom = from
		ent.pendWr = write
		ent.pendAcks = 1
		e.Reply(cmmu.Descriptor{Type: msgInv, Dst: owner, Ops: []uint64{uint64(line)}})
	}
}

// grant completes a request; data rides in the grant message.
func (ns *nodeState) grant(e *cmmu.Env, line mem.Addr, to int, write bool) {
	w := uint64(0)
	if write {
		w = 1
	}
	if to == ns.id {
		// Local client: just release its gate.
		ns.installLocal(line, write)
		return
	}
	e.Reply(cmmu.Descriptor{
		Type:    msgGrant,
		Dst:     to,
		Ops:     []uint64{uint64(line), w},
		Regions: []cmmu.Region{{Base: line, Words: mem.LineWords}},
	})
}

// installLocal installs a line for this node's own processor and releases
// its waiters.
func (ns *nodeState) installLocal(line mem.Addr, write bool) {
	if write {
		ns.cache[line] = lExclusive
	} else {
		ns.cache[line] = lShared
	}
	ns.release(line)
}

// onGrant installs a line at a remote requester.
func (ns *nodeState) onGrant(e *cmmu.Env) {
	e.ReadOps(2)
	e.Elapse(cacheInstall)
	line := mem.Addr(e.Ops[0])
	if e.Ops[1] == 1 {
		ns.cache[line] = lExclusive
	} else {
		ns.cache[line] = lShared
	}
	ns.release(line)
}

// onInv invalidates the software-cached line and acks the home.
func (ns *nodeState) onInv(e *cmmu.Env) {
	e.ReadOps(1)
	e.Elapse(cacheLookup)
	line := mem.Addr(e.Ops[0])
	delete(ns.cache, line)
	e.Reply(cmmu.Descriptor{
		Type: msgInvAck,
		Dst:  ns.dsm.home(line),
		Ops:  []uint64{uint64(line), uint64(ns.id)},
	})
}

// onInvAck counts acks at the home; the last completes the pending request.
func (ns *nodeState) onInvAck(e *cmmu.Env) {
	e.ReadOps(2)
	e.Elapse(handlerDir)
	line := mem.Addr(e.Ops[0])
	ent := ns.entry(line)
	if ent.state != dPending {
		panic(fmt.Sprintf("swdsm: stray invack for %#x", uint64(line)))
	}
	ent.pendAcks--
	if ent.pendAcks > 0 {
		return
	}
	to := ent.pendFrom
	if ent.pendWr {
		ent.state = dExcl
		ent.owner = to
		ent.sharers = nil
	} else {
		ent.state = dShared
		ent.owner = -1
		ent.addSharer(to)
	}
	ns.grant(e, line, to, ent.pendWr)
	// Serve one deferred request.
	for len(ent.deferred) > 0 && ent.state != dPending {
		r := ent.deferred[0]
		ent.deferred = ent.deferred[1:]
		ns.handleReq(e, line, r.from, r.write)
	}
}

// onWB handles an explicit software writeback (evictions; the software
// cache here is unbounded so this only serves protocol completeness).
func (ns *nodeState) onWB(e *cmmu.Env) {
	e.ReadOps(2)
	e.Elapse(handlerDir)
	line := mem.Addr(e.Ops[0])
	from := int(e.Ops[1])
	ent := ns.entry(line)
	if ent.state == dExcl && ent.owner == from {
		ent.state = dIdle
		ent.owner = -1
	}
}
