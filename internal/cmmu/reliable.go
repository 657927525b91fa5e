package cmmu

import (
	"fmt"

	"alewife/internal/mesh"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Reliable is the reliability sublayer of the network interface: a
// mesh.Network that restores exactly-once, per-pair-FIFO delivery on top of
// an unreliable interconnect (mesh.NetFault drops, duplicates and reorders
// packets). Every consumer of the network — the directory protocol in mem
// as much as the message unit — sends through it unchanged, so the
// coherence invariants that assume a perfect network keep holding when the
// wires misbehave.
//
// The mechanism is the classic sliding-window one, kept deliberately
// small:
//
//   - every (src,dst) pair numbers its packets with a sequence number,
//     carried in SeqBytes of extra wire header;
//   - the receiver delivers strictly in sequence order, parking
//     out-of-order arrivals in a Window-sized reorder buffer and
//     discarding duplicates and beyond-window arrivals;
//   - each delivery is acknowledged with a cumulative ack packet (itself
//     subject to the lossy wires);
//   - the sender keeps unacknowledged packets and retransmits them —
//     go-back-N, bounded by the window — when a timeout expires, doubling
//     the timeout up to BackoffMax; after Retries fruitless rounds the
//     pair is declared dead and a violation is reported (the network
//     analogue of a checker firing).
//
// The simulator models the wire protocol faithfully in time and bytes but
// keeps the payloads on the sender side: a wire packet carries only
// (pair, seq), and delivery fires the retained event. Retransmissions
// therefore re-send the identical payload, and duplicate suppression is
// exact.
//
// machine.New interposes a Reliable automatically whenever the mesh's
// NetFault can drop, duplicate or reorder packets; with faults off (or
// jitter only) the layer is absent entirely, so the fault-free data path
// is byte-for-byte the one the determinism goldens pin.
type Reliable struct {
	eng *sim.Engine
	net mesh.Network
	p   RelParams
	st  *stats.Machine // counts, traces and profiles recovery
	n   int

	// Fault, when non-nil, injects reliability bugs for the mutation
	// regression tests (see RelFault).
	Fault *RelFault
	// OnViolation, when non-nil, is called as each violation is detected.
	OnViolation func(Violation)

	violations []Violation
	pairs      []relPair
}

// RelParams is the reliability sublayer's cost and policy model.
type RelParams struct {
	SeqBytes   int    // wire overhead added to every data packet
	AckBytes   int    // wire size of a cumulative-ack packet
	Window     int    // dedup/reorder window, in packets, per pair
	RTO        uint64 // initial retransmit timeout in cycles
	BackoffMax uint64 // retransmit backoff cap
	Retries    int    // per-pair retry budget before the pair is declared dead
}

// DefaultRelParams returns the calibrated policy: a 4-byte sequence header,
// a window deep enough for any burst the protocol produces, and a timeout
// comfortably above the mesh's worst contended round trip.
func DefaultRelParams() RelParams {
	return RelParams{
		SeqBytes:   4,
		AckBytes:   8,
		Window:     64,
		RTO:        2048,
		BackoffMax: 1 << 15,
		Retries:    12,
	}
}

func (p *RelParams) fill() {
	d := DefaultRelParams()
	if p.SeqBytes <= 0 {
		p.SeqBytes = d.SeqBytes
	}
	if p.AckBytes <= 0 {
		p.AckBytes = d.AckBytes
	}
	if p.Window <= 0 {
		p.Window = d.Window
	}
	if p.RTO == 0 {
		p.RTO = d.RTO
	}
	if p.BackoffMax < p.RTO {
		p.BackoffMax = d.BackoffMax
	}
	if p.Retries <= 0 {
		p.Retries = d.Retries
	}
}

// RelFault injects deliberate reliability bugs; each must be caught by a
// checker (mutation testing of the recovery machinery, joining the
// mem.Fault/cmmu.Fault set). Nil injects nothing.
type RelFault struct {
	// DropAck discards every acknowledgement at the receiver. Caught by:
	// the retry budget (sender retransmits into the void until the pair is
	// declared dead).
	DropAck bool
	// AcceptStale delivers a stale (already-delivered) sequence number
	// again instead of discarding it. Caught by: the live protocol
	// checkers / per-location SC history (duplicate protocol events and
	// duplicate handler runs corrupt state).
	AcceptStale bool
	// DedupOffByOne shifts the duplicate test by one, so the next expected
	// packet itself is discarded as a duplicate. Caught by: the retry
	// budget (the sender's retransmits are eaten forever).
	DedupOffByOne bool
	// NoRetransmit lets timeouts fire without resending or re-arming —
	// backoff never happens. Caught by: deadlock detection or the
	// reliability quiescence sweep (unacked packets at end of run).
	NoRetransmit bool
}

func (ft *RelFault) dropAck() bool       { return ft != nil && ft.DropAck }
func (ft *RelFault) acceptStale() bool   { return ft != nil && ft.AcceptStale }
func (ft *RelFault) dedupOffByOne() bool { return ft != nil && ft.DedupOffByOne }
func (ft *RelFault) noRetransmit() bool  { return ft != nil && ft.NoRetransmit }

// pendMsg is one unacknowledged packet: its original wire size and the
// delivery event to fire at the receiver, retained until the cumulative
// ack passes it.
type pendMsg struct {
	bytes  int
	sink   sim.Sink
	op     uint32
	p0, p1 uint64
}

// fire delivers the retained payload.
func (m *pendMsg) fire() { m.sink.Fire(m.op, m.p0, m.p1) }

// relSlot is one reorder-buffer cell, keyed by the full sequence number so
// ring aliasing cannot confuse distinct packets.
type relSlot struct {
	seq uint64
	at  sim.Time
	ok  bool
}

// relPair is the per-(src,dst) connection state. The dense pairs array is
// sized n² at construction, like the mesh's own per-pair FIFO state.
type relPair struct {
	// Sender side.
	nextSeq uint64
	base    uint64    // lowest unacknowledged sequence number
	pending []pendMsg // pending[i] is packet base+i
	rto     uint64
	retries int
	armed   bool
	gen     uint64 // invalidates outstanding timer events
	dead    bool   // retry budget exhausted; violation already reported

	// Receiver side.
	recvNext uint64 // next sequence number to deliver (== cumulative ack)
	window   []relSlot
}

// Wire/timer event kinds sunk by Reliable.Fire. p0 is always the pair
// index; p1 is the sequence number (data), the cumulative ack (ack), or
// the timer generation (timer).
const (
	opRelData uint32 = iota
	opRelAck
	opRelTimer
)

// NewReliable wraps an unreliable network in the reliability sublayer.
// Zero-valued RelParams fields take defaults; st may be nil.
func NewReliable(eng *sim.Engine, inner mesh.Network, p RelParams, st *stats.Machine) *Reliable {
	p.fill()
	n := inner.Nodes()
	return &Reliable{eng: eng, net: inner, p: p, st: st, n: n, pairs: make([]relPair, n*n)}
}

// Params returns the effective (default-filled) policy.
func (r *Reliable) Params() RelParams { return r.p }

// Nodes implements mesh.Network.
func (r *Reliable) Nodes() int { return r.n }

// Dist implements mesh.Network.
func (r *Reliable) Dist(src, dst int) int { return r.net.Dist(src, dst) }

// Violations returns every reliability violation recorded so far.
func (r *Reliable) Violations() []Violation { return r.violations }

func (r *Reliable) pairNodes(pair int) (src, dst int) { return pair / r.n, pair % r.n }

// SendMsg implements mesh.Network: exactly-once FIFO delivery over the
// lossy inner network.
func (r *Reliable) SendMsg(src, dst int, bytes int, at sim.Time, s sim.Sink, op uint32, p0, p1 uint64) {
	if src < 0 || src >= r.n || dst < 0 || dst >= r.n {
		panic(fmt.Sprintf("reliable: send %d->%d outside 0..%d", src, dst, r.n-1))
	}
	pair := src*r.n + dst
	ps := &r.pairs[pair]
	seq := ps.nextSeq
	ps.nextSeq++
	ps.pending = append(ps.pending, pendMsg{bytes: bytes, sink: s, op: op, p0: p0, p1: p1})
	r.net.SendMsg(src, dst, bytes+r.p.SeqBytes, at, r, opRelData, uint64(pair), seq)
	r.armTimer(pair, ps, at)
}

// armTimer schedules the pair's retransmit timeout if none is outstanding.
func (r *Reliable) armTimer(pair int, ps *relPair, at sim.Time) {
	if ps.armed || ps.dead {
		return
	}
	if ps.rto == 0 {
		ps.rto = r.p.RTO
	}
	if now := r.eng.Now(); at < now {
		at = now
	}
	ps.gen++
	ps.armed = true
	r.eng.AtSink(at+ps.rto, r, opRelTimer, uint64(pair), ps.gen)
}

// Fire implements sim.Sink: a data packet, an ack, or a retransmit timer.
func (r *Reliable) Fire(op uint32, p0, p1 uint64) {
	pair := int(p0)
	switch op {
	case opRelData:
		r.dataArrive(pair, p1)
	case opRelAck:
		r.ackArrive(pair, p1)
	case opRelTimer:
		r.timerFire(pair, p1)
	}
}

// dataArrive runs at a data packet's wire-arrival time at the receiver.
func (r *Reliable) dataArrive(pair int, seq uint64) {
	ps := &r.pairs[pair]
	_, dst := r.pairNodes(pair)
	now := r.eng.Now()

	dupBound := ps.recvNext
	if r.Fault.dedupOffByOne() {
		dupBound++ // mutation: the expected packet reads as a duplicate
	}
	if seq < dupBound {
		// Duplicate of an already-delivered packet (a wire dup, or a
		// retransmission racing its own ack). Discard, but re-ack: the
		// retransmission may mean our previous ack was lost.
		r.dupDrop(dst, seq, now)
		if r.Fault.acceptStale() && seq >= ps.base {
			// Mutation: deliver the stale payload a second time.
			msg := ps.pending[seq-ps.base]
			msg.fire()
		}
		r.sendAck(pair, ps, now)
		return
	}
	if seq >= ps.recvNext+uint64(r.p.Window) {
		// Beyond the reorder window: unbuffered, the retransmit machinery
		// will bring it around again once the window has advanced.
		r.st.Inc(dst, stats.RelWindowDrops)
		r.sendAck(pair, ps, now)
		return
	}
	if ps.window == nil {
		ps.window = make([]relSlot, r.p.Window)
	}
	s := &ps.window[seq%uint64(r.p.Window)]
	if s.ok && s.seq == seq {
		// Duplicate of a parked out-of-order packet.
		r.dupDrop(dst, seq, now)
		r.sendAck(pair, ps, now)
		return
	}
	*s = relSlot{seq: seq, at: now, ok: true}

	// Deliver the in-order run this arrival completes.
	for {
		s := &ps.window[ps.recvNext%uint64(r.p.Window)]
		if !s.ok || s.seq != ps.recvNext {
			break
		}
		s.ok = false
		r.st.Charge(dst, metrics.RelQueue, now-s.at)
		// Copy before firing: the handler may send on this pair and grow
		// ps.pending under us.
		msg := ps.pending[ps.recvNext-ps.base]
		ps.recvNext++
		msg.fire()
	}
	r.sendAck(pair, ps, now)
}

// dupDrop records one discarded duplicate.
func (r *Reliable) dupDrop(node int, seq uint64, now sim.Time) {
	r.st.Event(node, stats.RelDupDrops, now, trace.KDupDrop, seq)
}

// sendAck sends the pair's cumulative ack from receiver back to sender.
func (r *Reliable) sendAck(pair int, ps *relPair, now sim.Time) {
	if r.Fault.dropAck() {
		return // mutation: the sender hears nothing, ever
	}
	src, dst := r.pairNodes(pair)
	r.st.Inc(dst, stats.RelAcks)
	r.net.SendMsg(dst, src, r.p.AckBytes, now, r, opRelAck, uint64(pair), ps.recvNext)
}

// ackArrive runs at an ack's wire-arrival time back at the sender: free
// everything the cumulative ack covers and reset the backoff.
func (r *Reliable) ackArrive(pair int, cum uint64) {
	ps := &r.pairs[pair]
	if cum <= ps.base {
		return // stale or duplicate ack
	}
	k := cum - ps.base
	if k > uint64(len(ps.pending)) {
		k = uint64(len(ps.pending)) // defensive: never ack the unsent
	}
	ps.pending = append(ps.pending[:0], ps.pending[k:]...)
	ps.base += k
	ps.retries = 0
	ps.rto = r.p.RTO
	ps.gen++ // invalidate the outstanding timer
	ps.armed = false
	if len(ps.pending) > 0 {
		r.armTimer(pair, ps, r.eng.Now())
	}
}

// timerFire runs when a pair's retransmit timeout expires.
func (r *Reliable) timerFire(pair int, gen uint64) {
	ps := &r.pairs[pair]
	if gen != ps.gen || !ps.armed {
		return // superseded by an ack or a newer arm
	}
	ps.armed = false
	if len(ps.pending) == 0 || ps.dead {
		return
	}
	src, dst := r.pairNodes(pair)
	now := r.eng.Now()
	r.st.Inc(src, stats.RelTimeouts)
	r.st.Charge(src, metrics.RelStall, ps.rto)
	if r.Fault.noRetransmit() {
		return // mutation: loss detection fires, recovery never does
	}
	ps.retries++
	if ps.retries > r.p.Retries {
		ps.dead = true
		r.violate(src, now, "reliable: retry budget (%d) exhausted to n%d: %d unacked from seq %d",
			r.p.Retries, dst, len(ps.pending), ps.base)
		return
	}
	// Go-back-N, bounded by what the receiver could accept anyway.
	limit := len(ps.pending)
	if limit > r.p.Window {
		limit = r.p.Window
	}
	for i := 0; i < limit; i++ {
		seq := ps.base + uint64(i)
		r.st.Event(src, stats.RelRetransmits, now, trace.KRetransmit, seq)
		r.net.SendMsg(src, dst, ps.pending[i].bytes+r.p.SeqBytes, now, r, opRelData, uint64(pair), seq)
	}
	ps.rto *= 2
	if ps.rto > r.p.BackoffMax {
		ps.rto = r.p.BackoffMax
	}
	r.armTimer(pair, ps, now)
}

// violate records a reliability violation, mirroring the Checker's style.
func (r *Reliable) violate(node int, at sim.Time, format string, args ...interface{}) {
	v := Violation{At: at, Node: node, Msg: fmt.Sprintf(format, args...)}
	r.violations = append(r.violations, v)
	r.st.Event(node, stats.CheckViolations, at, trace.KCheckFail, 0)
	if r.OnViolation != nil {
		r.OnViolation(v)
	}
}

// Quiesce sweeps the pair state after a run drains: a correct run ends
// with every packet delivered and acknowledged, so anything still pending
// is a lost packet the recovery machinery failed to recover (the
// reliability analogue of lost-writeback tracking).
func (r *Reliable) Quiesce() error {
	for pair := range r.pairs {
		ps := &r.pairs[pair]
		if len(ps.pending) > 0 {
			src, dst := r.pairNodes(pair)
			return fmt.Errorf("reliable: pair n%d->n%d quiesced with %d unacked packets from seq %d (delivered through %d)",
				src, dst, len(ps.pending), ps.base, ps.recvNext)
		}
	}
	return nil
}
