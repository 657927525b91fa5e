// Package mesh models Alewife's 2-D mesh interconnect: dimension-ordered
// (X then Y) routing, a per-hop router delay, and per-link serialization so
// that concurrent packets crossing the same channel contend realistically.
//
// The model is a wormhole pipeline approximation. A packet of F flits whose
// head leaves the source at time t experiences, per hop, a router delay and
// a reservation of the outgoing link for F flit-times starting no earlier
// than the link's previous release. Delivery occurs when the tail arrives:
//
//	head_0 = t + InjectDelay
//	head_{i+1} = max(head_i + RouterDelay, link_i.freeAt)
//	link_i.freeAt = head_{i+1} + F*FlitCycles
//	deliver = head_last + F*FlitCycles + EjectDelay
//
// This captures head latency, serialization, and link contention while
// staying cheap enough to simulate millions of packets.
package mesh

import (
	"fmt"

	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// The network's fixed cost terms approximate Alewife's mesh: 16-bit
// channels clocked with the processor.
const (
	FlitBytes   = 2 // channel width: bytes moved per flit-time
	FlitCycles  = 1 // cycles per flit per link
	InjectDelay = 2 // source overhead to start driving the network
	EjectDelay  = 2 // destination overhead before delivery fires

	// idealLatency is the Ideal network's flat one-way latency.
	idealLatency = 10
)

// Params holds what experiments vary about the network: the per-hop
// router delay and the fault model.
type Params struct {
	RouterDelay uint64 // cycles for a head flit to cross one router

	// Fault, when non-nil, perturbs every packet from one seeded hash (see
	// NetFault): injection jitter, which only shifts timing, and drops,
	// duplicates and reorders, which break per-pair FIFO and exactly-once
	// delivery — consumers must then run the reliability sublayer
	// (cmmu.Reliable) on top, as machine.New does automatically. Nil
	// injects nothing and costs one nil check.
	Fault *NetFault
}

// DefaultParams returns the calibrated Alewife-like network: roughly one
// cycle per hop of routing delay and no faults.
func DefaultParams() Params {
	return Params{RouterDelay: 1}
}

// Network is the interface the rest of the simulator speaks. Mesh is the
// production implementation; Ideal exists for ablations.
type Network interface {
	// SendMsg schedules delivery of a packet of `bytes` payload+header
	// bytes from node src to node dst, departing no earlier than `at`. At
	// the arrival time s.Fire(op, p0, p1) runs as a pooled typed engine
	// event. Self-sends are legal and take a small loopback cost.
	SendMsg(src, dst int, bytes int, at sim.Time, s sim.Sink, op uint32, p0, p1 uint64)
	// Nodes returns the number of endpoints.
	Nodes() int
	// Dist returns the hop distance between two nodes.
	Dist(src, dst int) int
}

type link struct {
	freeAt sim.Time
}

// Mesh is a W×H 2-D mesh with XY routing; with wrap-around links it is a
// torus (each dimension routes the shorter way around).
type Mesh struct {
	eng  *Engine
	w, h int
	p    Params
	wrap bool
	// links[dir][node] is the outgoing link from node in direction dir.
	links [4][]link
	// The routed path is naturally FIFO (monotone link reservations), but
	// jittered or loopback packets of different sizes could otherwise
	// overtake: the tail's per-pair clamp orders them.
	tail

	faultPkts uint64 // packet ordinal the NetFault verdicts hash
}

// tail is the per-packet epilogue Mesh and Ideal share: the per-pair FIFO
// clamp, the packet counters and the transit/queue profiler charge.
type tail struct {
	st *stats.Machine
	n  int // endpoints
	// last is each pair's latest delivery time. It is dense — indexed
	// src*n+dst and sized once — so it never grows with traffic.
	last []sim.Time
}

func newTail(st *stats.Machine, n int) tail {
	return tail{st: st, n: n, last: make([]sim.Time, n*n)}
}

// deliver clamps delivery time t strictly after the pair's previous
// delivery, counts the packet against src, and charges its delay since
// the requested departure at0 to the source node's overlay buckets:
// unloaded cycles of NetTransit, the rest (link contention, FIFO clamps,
// jitter) NetQueue. at is the injection time, at0 plus any jitter.
func (tl *tail) deliver(src, dst int, at0, at, t sim.Time, unloaded uint64) sim.Time {
	pair := src*tl.n + dst
	if prev := tl.last[pair]; t <= prev {
		t = prev + 1
	}
	tl.last[pair] = t
	tl.st.Inc(src, stats.NetPackets)
	tl.st.Add(src, stats.NetPacketCycles, int64(t-at))
	total := uint64(t - at0)
	if total < unloaded {
		unloaded = total // FIFO clamps cannot shrink a delay; guard anyway
	}
	tl.st.Charge(src, metrics.NetTransit, unloaded)
	tl.st.Charge(src, metrics.NetQueue, total-unloaded)
	return t
}

// Engine is the subset of *sim.Engine the mesh needs; aliased for clarity.
type Engine = sim.Engine

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New builds a W×H mesh over the engine. W*H is the node count; node i sits
// at (i mod W, i div W). st may be nil.
func New(eng *Engine, w, h int, p Params, st *stats.Machine) *Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", w, h))
	}
	m := &Mesh{eng: eng, w: w, h: h, p: p, tail: newTail(st, w*h)}
	for d := range m.links {
		m.links[d] = make([]link, w*h)
	}
	return m
}

// PairStateWords reports the per-pair bookkeeping footprint in words. It is
// a constant for a given machine size — tests assert it does not scale with
// traffic.
func (m *Mesh) PairStateWords() int { return len(m.last) }

// NewTorus builds a W×H torus: the mesh plus wrap-around links, each
// dimension routed the shorter way. A 1×N or N×1 torus is a ring.
func NewTorus(eng *Engine, w, h int, p Params, st *stats.Machine) *Mesh {
	m := New(eng, w, h, p, st)
	m.wrap = true
	return m
}

// Dims returns a near-square factorization of n for building a mesh that
// holds n nodes (w >= h, w*h >= n).
func Dims(n int) (w, h int) {
	if n < 1 {
		return 1, 1
	}
	h = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			h = d
		}
	}
	w = n / h
	if w*h < n { // non-factorable fallback (n prime handled by n = w*h exactly)
		w = n
		h = 1
	}
	return w, h
}

// Nodes returns the endpoint count.
func (m *Mesh) Nodes() int { return m.w * m.h }

func (m *Mesh) coord(n int) (x, y int) { return n % m.w, n / m.w }

// Dist returns the Manhattan distance between two nodes (shorter-way-
// around per dimension on a torus).
func (m *Mesh) Dist(src, dst int) int {
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	ddx, ddy := abs(sx-dx), abs(sy-dy)
	if m.wrap {
		if alt := m.w - ddx; alt < ddx {
			ddx = alt
		}
		if alt := m.h - ddy; alt < ddy {
			ddy = alt
		}
	}
	return ddx + ddy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// flits returns the number of flit-times a packet of the given size occupies
// on each link (at least one).
func flits(bytes int) uint64 {
	f := uint64((bytes + FlitBytes - 1) / FlitBytes)
	if f == 0 {
		f = 1
	}
	return f
}

// SendMsg implements Network. Routing is X-first then Y, matching Alewife.
//
//alewife:engine-only
func (m *Mesh) SendMsg(src, dst int, bytes int, at sim.Time, s sim.Sink, op uint32, p0, p1 uint64) {
	if m.p.Fault == nil {
		m.eng.AtSink(m.route(src, dst, bytes, at, 0), s, op, p0, p1)
		return
	}
	m.faultPkts++
	f := m.p.Fault.resolve(src, dst, m.faultPkts)
	f.land(m.eng, m.st, src, m.route(src, dst, bytes, at, f.jitter), s, op, p0, p1)
}

// route walks the packet across the mesh, injected jitter cycles late,
// reserving links, and returns the FIFO-clamped delivery time. This is
// the whole cost model.
func (m *Mesh) route(src, dst int, bytes int, at sim.Time, jitter uint64) sim.Time {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("mesh: send %d->%d outside 0..%d", src, dst, m.Nodes()-1))
	}
	if at < m.eng.Now() {
		at = m.eng.Now()
	}
	f := flits(bytes)
	m.st.Add(src, stats.NetFlits, int64(f))
	at0 := at // requested departure; delay beyond unloaded time is queueing
	at += jitter
	if src == dst {
		// Loopback through the network interface without touching links.
		u := InjectDelay + EjectDelay + f*FlitCycles
		return m.deliver(src, dst, at0, at, at+u, u)
	}
	head := at + InjectDelay
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	step := func(dir int, node int) {
		l := &m.links[dir][node]
		if l.freeAt > head {
			head = l.freeAt
		}
		head += m.p.RouterDelay
		l.freeAt = head + f*FlitCycles
	}
	// X dimension, then Y; on a torus each goes the shorter way around.
	steps, forward := m.plan(x, dx, m.w)
	for i := 0; i < steps; i++ {
		node := y*m.w + x
		if forward {
			step(dirEast, node)
			x = (x + 1) % m.w
		} else {
			step(dirWest, node)
			x = (x - 1 + m.w) % m.w
		}
	}
	steps, forward = m.plan(y, dy, m.h)
	for i := 0; i < steps; i++ {
		node := y*m.w + x
		if forward {
			step(dirSouth, node)
			y = (y + 1) % m.h
		} else {
			step(dirNorth, node)
			y = (y - 1 + m.h) % m.h
		}
	}
	return m.deliver(src, dst, at0, at, head+f*FlitCycles+EjectDelay,
		InjectDelay+uint64(m.Dist(src, dst))*m.p.RouterDelay+f*FlitCycles+EjectDelay)
}

// plan returns the hop count and direction (forward = increasing
// coordinate) for one dimension from c to d of extent n.
func (m *Mesh) plan(c, d, n int) (steps int, forward bool) {
	if !m.wrap {
		if d >= c {
			return d - c, true
		}
		return c - d, false
	}
	fwd := ((d-c)%n + n) % n
	if back := n - fwd; back < fwd {
		return back, false
	}
	return fwd, true
}

// Ideal is a contention-free constant-latency network used for ablation
// benchmarks ("how much does the mesh matter?"). It keeps wire-rate
// serialization, one FlitBytes per cycle, so bulk transfers still take
// time; only hops and contention vanish.
//
// Like any network the coherence protocol runs over, Ideal preserves
// point-to-point FIFO ordering: a later packet between the same pair never
// overtakes an earlier one even if it is smaller. (The directory protocol
// relies on this, as real protocols do.)
type Ideal struct {
	Eng *Engine
	N   int
	// St counts packets and faults as Mesh does; constant latency plus
	// serialization is profiled as transit, and the FIFO clamp is the only
	// queueing an ideal network has. May be nil.
	St *stats.Machine

	// Fault mirrors Mesh: when non-nil the ideal network is perturbed too.
	// The schedule explorer depends on this — it runs the protocol over
	// Ideal (link contention would couple otherwise-independent packets)
	// while still exploring drop/dup placements through NetFault.Chooser.
	Fault *NetFault

	tail             // built on first send
	faultPkts uint64 // packet ordinal the NetFault verdicts hash
}

// Nodes implements Network.
func (i *Ideal) Nodes() int { return i.N }

// Dist implements Network; an ideal network is one hop everywhere.
func (i *Ideal) Dist(src, dst int) int {
	if src == dst {
		return 0
	}
	return 1
}

// SendMsg implements Network, applying Fault exactly as Mesh does.
//
//alewife:engine-only
func (i *Ideal) SendMsg(src, dst int, bytes int, at sim.Time, s sim.Sink, op uint32, p0, p1 uint64) {
	if i.Fault == nil {
		i.Eng.AtSink(i.arrival(src, dst, bytes, at, 0), s, op, p0, p1)
		return
	}
	i.faultPkts++
	f := i.Fault.resolve(src, dst, i.faultPkts)
	f.land(i.Eng, i.St, src, i.arrival(src, dst, bytes, at, f.jitter), s, op, p0, p1)
}

// arrival is Ideal's cost model: idealLatency plus serialization at one
// FlitBytes per cycle, injected jitter cycles late, then the shared tail.
// Its strict per-pair FIFO matters here too: equal-time delivery would let
// a chasing recall be processed before the resume of the processor its
// grant just woke, livelocking the retry loop.
func (i *Ideal) arrival(src, dst int, bytes int, at sim.Time, jitter uint64) sim.Time {
	if at < i.Eng.Now() {
		at = i.Eng.Now()
	}
	unloaded := idealLatency + uint64((bytes+FlitBytes-1)/FlitBytes)
	if i.last == nil {
		i.tail = newTail(i.St, i.N)
	}
	return i.deliver(src, dst, at, at+jitter, at+jitter+unloaded, unloaded)
}
