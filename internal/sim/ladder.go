package sim

import "math/bits"

// The event queue is a two-level ladder (calendar) queue tuned for the
// simulator's traffic: almost every scheduled delay is a small latency —
// cache fills, network hops, handler timers — so the near tier is a ring of
// one-cycle buckets covering a ladderWindow-cycle horizon, indexed directly
// by time. Events beyond the horizon (long Elapse calls, watchdogs) go to a
// typed min-heap overflow tier and migrate into the ring as the cursor
// approaches them. Event records are typed (no interface boxing) and pooled
// on a free list, so steady-state scheduling performs zero allocations.
//
// Ordering contract (the determinism goldens depend on it): events fire in
// ascending (at, seq) order, where seq is assignment order. Within a bucket
// every record shares one timestamp (the ring maps each in-window cycle to
// exactly one bucket), so bucket FIFO order is seq order as long as records
// enter the bucket in ascending seq. Direct pushes do so because simulation
// is single-threaded; migrated records do so because the overflow heap pops
// in (at, seq) order and migration is drained eagerly — before any direct
// near-tier push (see push) and at the top of every pop — so a direct push can
// never slip in ahead of a lower-seq record still parked in overflow.

const (
	// ladderWindow is the near-tier horizon in cycles (power of two).
	// 4 KiCycles covers every latency the machine model schedules and the
	// longest compute/backoff delays the workloads use; anything larger is
	// a far-future timer and takes the overflow tier.
	ladderWindow = 4096
	ladderMask   = ladderWindow - 1
)

// event is one pooled scheduler record, a wake or a sink event: exactly one
// of ctx/sink is set. ctx+gen is a context wake-up (Sleep/WaitUntil arm
// one per park); sink+op+p0, with gen reused as the second payload word,
// is a subsystem event delivered through the Sink interface — the protocol
// and network hot paths schedule one per message.
type event struct {
	at   Time
	seq  uint64
	ctx  *Context
	sink Sink
	op   uint32
	p0   uint64
	gen  uint64 // ctx wake generation, or sink payload word p1
	next *event // bucket FIFO link / free-list link
}

// bucket is a FIFO of events sharing one timestamp.
type bucket struct{ head, tail *event }

// ladder is the two-level queue. base is the cursor: every near-tier event
// has time in [base, base+ladderWindow), every overflow event has time
// >= base+ladderWindow (re-established eagerly as base advances).
type ladder struct {
	base    Time
	buckets []bucket
	occ     []uint64 // occupancy bitmap, one bit per bucket
	near    int      // events in buckets
	ovf     []*event // typed min-heap on (at, seq)
	free    *event
	size    int
}

func newLadder() ladder {
	return ladder{
		buckets: make([]bucket, ladderWindow),
		occ:     make([]uint64, ladderWindow/64),
	}
}

// get returns a pooled record, growing the pool a block at a time so cold
// starts amortize to ~0 allocations per event.
func (l *ladder) get() *event {
	r := l.free
	if r == nil {
		blk := make([]event, 64)
		for i := 1; i < len(blk)-1; i++ {
			blk[i].next = &blk[i+1]
		}
		l.free = &blk[1]
		return &blk[0]
	}
	l.free = r.next
	r.next = nil
	return r
}

// put recycles a record, dropping payload references so pooled records never
// pin dead sinks or contexts.
func (l *ladder) put(r *event) {
	r.ctx = nil
	r.sink = nil
	r.next = l.free
	l.free = r
}

// push enqueues a record, routing by horizon. Caller has set at/seq/payload.
//
//alewife:hotpath
func (l *ladder) push(r *event) {
	l.size++
	if r.at >= l.base+ladderWindow {
		l.ovfPush(r)
		return
	}
	// Drain newly-eligible overflow records first so lower-seq records
	// parked there land in the bucket ahead of this one (ordering contract).
	for len(l.ovf) > 0 && l.ovf[0].at < l.base+ladderWindow {
		l.pushNear(l.ovfPop())
	}
	l.pushNear(r)
}

// pushNear appends to the bucket for r.at and marks it occupied.
//
//alewife:hotpath
func (l *ladder) pushNear(r *event) {
	idx := int(r.at & ladderMask)
	b := &l.buckets[idx]
	if b.head == nil {
		b.head = r
		l.occ[idx>>6] |= 1 << (idx & 63)
	} else {
		b.tail.next = r
	}
	b.tail = r
	l.near++
}

// seek advances the cursor to the minimum pending timestamp and returns the
// index of its bucket. It migrates eligible overflow records, jumps an empty
// near tier to the overflow minimum, then scans the occupancy bitmap from
// the cursor (a handful of 64-bucket words). The cursor never passes the
// minimum pending record, so anything scheduled from now on lands ahead of
// it. Callers guarantee size > 0.
//
//alewife:hotpath
func (l *ladder) seek() int {
	for {
		for len(l.ovf) > 0 && l.ovf[0].at < l.base+ladderWindow {
			l.pushNear(l.ovfPop())
		}
		if l.near > 0 {
			break
		}
		// Everything pending is far-future: jump the cursor to the
		// overflow minimum and let migration pull it in.
		l.base = l.ovf[0].at
	}
	cur := int(l.base & ladderMask)
	w := cur >> 6
	x := l.occ[w] &^ (1<<(cur&63) - 1)
	// Past the cursor's own word the scan wraps the ring, ending on that
	// word again in full for a bucket behind the cursor's slot.
	for i := 0; x == 0; i++ {
		if i == len(l.occ) {
			panic("sim: ladder occupancy bitmap empty with near > 0")
		}
		w = (w + 1) & (len(l.occ) - 1)
		x = l.occ[w]
	}
	idx := w<<6 + bits.TrailingZeros64(x)
	l.base += Time((idx - cur) & ladderMask)
	return idx
}

// next dequeues the earliest record, or returns nil when the queue is empty.
//
//alewife:hotpath
func (l *ladder) next() *event {
	if l.size == 0 {
		return nil
	}
	idx := l.seek()
	b := &l.buckets[idx]
	r := b.head
	b.head = r.next
	if b.head == nil {
		b.tail = nil
		l.occ[idx>>6] &^= 1 << (idx & 63)
	}
	r.next = nil
	l.near--
	l.size--
	return r
}

// candidates advances the cursor exactly as next does and appends the whole
// FIFO chain of the minimum pending bucket to buf without dequeuing
// anything. Because the ring maps each in-window cycle to exactly one
// bucket, every record returned shares the minimum pending timestamp: these
// are all the events legally able to fire next, in seq order. Returns buf
// unchanged when the queue is empty. Pair with take to remove the chosen
// record.
func (l *ladder) candidates(buf []*event) []*event {
	if l.size == 0 {
		return buf
	}
	for r := l.buckets[l.seek()].head; r != nil; r = r.next {
		buf = append(buf, r)
	}
	return buf
}

// take removes r — a record of the current minimum bucket, as returned by
// candidates — from the queue. Unlinking preserves the bucket's FIFO order,
// so the records left behind still fire in seq order.
func (l *ladder) take(r *event) {
	idx := int(r.at & ladderMask)
	b := &l.buckets[idx]
	var prev *event
	for e := b.head; e != nil; prev, e = e, e.next {
		if e != r {
			continue
		}
		if prev == nil {
			b.head = e.next
		} else {
			prev.next = e.next
		}
		if b.tail == e {
			b.tail = prev
		}
		if b.head == nil {
			l.occ[idx>>6] &^= 1 << (idx & 63)
		}
		r.next = nil
		l.near--
		l.size--
		return
	}
	panic("sim: take of a record not in the cursor bucket")
}

// ovfPush inserts into the typed overflow min-heap.
func (l *ladder) ovfPush(r *event) {
	h := append(l.ovf, r)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	l.ovf = h
}

// ovfPop removes and returns the overflow minimum.
func (l *ladder) ovfPop() *event {
	h := l.ovf
	r := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && eventLess(h[c+1], h[c]) {
			c++
		}
		if !eventLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	l.ovf = h
	return r
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
