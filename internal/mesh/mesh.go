// Package mesh models Alewife's 2-D mesh interconnect: dimension-ordered
// (X then Y) routing, a per-hop router delay, and per-link serialization so
// that concurrent packets crossing the same channel contend realistically.
//
// The model is a wormhole pipeline approximation. A packet of F flits whose
// head leaves the source at time t experiences, per hop, a router delay and
// a reservation of the outgoing link for F flit-times starting no earlier
// than the link's previous release. Delivery occurs when the tail arrives:
//
//	head_{i+1} = max(head_i + RouterDelay, link_i.freeAt)
//	link_i.freeAt = head_{i+1} + F*FlitCycles
//	deliver = head_last + F*FlitCycles
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

// Params fixes the network cost model. Defaults approximate Alewife's mesh:
// 16-bit channels clocked with the processor, roughly one cycle per hop of
// routing delay.
type Params struct {
	RouterDelay uint64 // cycles for a head flit to cross one router
	FlitBytes   int    // channel width: bytes moved per flit-time
	FlitCycles  uint64 // cycles per flit per link
	InjectDelay uint64 // source overhead to start driving the network
	EjectDelay  uint64 // destination overhead before delivery fires

	// Fault, when non-nil, perturbs every packet from one seeded hash (see
	// NetFault): injection jitter, which only shifts timing, and drops,
	// duplicates and reorders, which break per-pair FIFO and exactly-once
	// delivery — consumers must then run the reliability sublayer
	// (cmmu.Reliable) on top, as machine.New does automatically. Nil
	// injects nothing and costs one nil check.
	Fault *NetFault
}

// DefaultParams returns the calibrated Alewife-like cost model.
func DefaultParams() Params {
	return Params{
		RouterDelay: 1,
		FlitBytes:   2,
		FlitCycles:  1,
		InjectDelay: 2,
		EjectDelay:  2,
	}
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
	st    *stats.Machine
	// Prof, when non-nil, meters every packet's unloaded wire time
	// (NetTransit) and its delay beyond that (NetQueue: link contention,
	// FIFO clamps, jitter), charged to the source node as overlay buckets.
	Prof *metrics.Profiler

	faultPkts uint64 // packet ordinal the NetFault verdicts hash
	// lastDeliver enforces point-to-point FIFO delivery for every pair;
	// the routed path is naturally FIFO (monotone link reservations), but
	// jittered or loopback packets of different sizes could otherwise
	// overtake. It is dense — indexed src*Nodes()+dst and sized once at
	// construction — so it never grows with traffic.
	lastDeliver []sim.Time
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
	m := &Mesh{eng: eng, w: w, h: h, p: p, st: st}
	for d := range m.links {
		m.links[d] = make([]link, w*h)
	}
	m.lastDeliver = make([]sim.Time, w*h*w*h)
	return m
}

// PairStateWords reports the per-pair bookkeeping footprint in words. It is
// a constant for a given machine size — tests assert it does not scale with
// traffic.
func (m *Mesh) PairStateWords() int { return len(m.lastDeliver) }

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
func (m *Mesh) flits(bytes int) uint64 {
	f := uint64((bytes + m.p.FlitBytes - 1) / m.p.FlitBytes)
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
	f := m.flits(bytes)
	m.st.Inc(src, stats.NetPackets)
	m.st.Add(src, stats.NetFlits, int64(f))
	at0 := at // requested departure; delay beyond unloaded time is queueing
	at += jitter
	if src == dst {
		// Loopback through the network interface without touching links.
		t := m.fifo(src, dst, at+m.p.InjectDelay+m.p.EjectDelay+f*m.p.FlitCycles)
		m.st.Add(src, stats.NetPacketCycles, int64(t-at))
		m.profNet(src, uint64(t-at0), m.p.InjectDelay+m.p.EjectDelay+f*m.p.FlitCycles)
		return t
	}
	head := at + m.p.InjectDelay
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	step := func(dir int, node int) {
		l := &m.links[dir][node]
		if l.freeAt > head {
			head = l.freeAt
		}
		head += m.p.RouterDelay
		l.freeAt = head + f*m.p.FlitCycles
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
	t := m.fifo(src, dst, head+f*m.p.FlitCycles+m.p.EjectDelay)
	m.st.Add(src, stats.NetPacketCycles, int64(t-at))
	m.profNet(src, uint64(t-at0),
		m.p.InjectDelay+uint64(m.Dist(src, dst))*m.p.RouterDelay+f*m.p.FlitCycles+m.p.EjectDelay)
	return t
}

// profNet splits one packet's delivery delay into its unloaded wire time
// and everything beyond it (contention, FIFO clamps, jitter).
func (m *Mesh) profNet(src int, total, unloaded uint64) {
	if m.Prof == nil {
		return
	}
	if total < unloaded {
		unloaded = total // FIFO clamps cannot shrink a delay; guard anyway
	}
	m.Prof.Add(src, metrics.NetTransit, unloaded)
	m.Prof.Add(src, metrics.NetQueue, total-unloaded)
}

// fifo clamps a delivery time so packets between the same endpoints arrive
// strictly in send order.
func (m *Mesh) fifo(src, dst int, t sim.Time) sim.Time {
	pair := src*m.Nodes() + dst
	if prev := m.lastDeliver[pair]; t <= prev {
		t = prev + 1
	}
	m.lastDeliver[pair] = t
	return t
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
// benchmarks ("how much does the mesh matter?"). Serialization can be kept
// (BytesPerCycle > 0) while removing hops and contention, or removed too
// (BytesPerCycle == 0 means infinite bandwidth).
//
// Like any network the coherence protocol runs over, Ideal preserves
// point-to-point FIFO ordering: a later packet between the same pair never
// overtakes an earlier one even if it is smaller. (The directory protocol
// relies on this, as real protocols do.)
type Ideal struct {
	Eng           *Engine
	N             int
	Latency       uint64 // flat one-way latency
	PerByte       uint64 // additional cycles per byte (can be zero)
	BytesPerCycle int    // wire rate; 0 = infinite
	// Prof mirrors Mesh.Prof: constant latency plus serialization is
	// transit; the FIFO clamp is the only queueing an ideal network has.
	Prof *metrics.Profiler

	// Fault mirrors Mesh: when non-nil the ideal network is perturbed too.
	// The schedule explorer depends on this — it runs the protocol over
	// Ideal (link contention would couple otherwise-independent packets)
	// while still exploring drop/dup placements through NetFault.Chooser.
	Fault *NetFault

	lastArrival []sim.Time // dense per-pair floor, sized N*N on first use
	faultPkts   uint64     // packet ordinal the NetFault verdicts hash
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

// SendMsg implements Network, applying Fault exactly as Mesh does; an
// ideal network has no stats wiring, so its faults go uncounted.
//
//alewife:engine-only
func (i *Ideal) SendMsg(src, dst int, bytes int, at sim.Time, s sim.Sink, op uint32, p0, p1 uint64) {
	if i.Fault == nil {
		i.Eng.AtSink(i.arrival(src, dst, bytes, at, 0), s, op, p0, p1)
		return
	}
	i.faultPkts++
	f := i.Fault.resolve(src, dst, i.faultPkts)
	f.land(i.Eng, nil, src, i.arrival(src, dst, bytes, at, f.jitter), s, op, p0, p1)
}

// arrival is Ideal's cost model: constant latency plus serialization,
// injected jitter cycles late, then the per-pair FIFO clamp.
func (i *Ideal) arrival(src, dst int, bytes int, at sim.Time, jitter uint64) sim.Time {
	if at < i.Eng.Now() {
		at = i.Eng.Now()
	}
	unloaded := i.Latency + i.PerByte*uint64(bytes)
	if i.BytesPerCycle > 0 {
		unloaded += uint64((bytes + i.BytesPerCycle - 1) / i.BytesPerCycle)
	}
	t := at + jitter + unloaded
	if i.lastArrival == nil {
		i.lastArrival = make([]sim.Time, i.N*i.N)
	}
	// Strict FIFO per pair: a later packet arrives strictly after an
	// earlier one (one wire delivers distinct packets at distinct times).
	// Equal-time delivery would let a chasing recall be processed before
	// the resume of the processor its grant just woke, livelocking the
	// retry loop.
	pair := src*i.N + dst
	if prev := i.lastArrival[pair]; t <= prev {
		t = prev + 1
	}
	i.lastArrival[pair] = t
	if i.Prof != nil {
		i.Prof.Add(src, metrics.NetTransit, unloaded)
		i.Prof.Add(src, metrics.NetQueue, uint64(t-at)-unloaded)
	}
	return t
}
