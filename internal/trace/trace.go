// Package trace records timestamped simulation events in a bounded ring
// buffer: coherence misses and fills, protocol invalidations, message
// sends and deliveries, scheduler decisions, barrier episodes. Tracing is
// optional and zero-cost when disabled (a nil *Buffer ignores Emit).
//
// Traces are for humans and tests: render a window with Format, or
// aggregate with CountByKind/NodeActivity.
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KMiss       Kind = iota // processor missed; Arg = line address
	KFill                   // fill granted; Arg = line address
	KInval                  // line invalidated; Arg = line address
	KRecall                 // owner recalled; Arg = line address
	KWriteback              // dirty eviction; Arg = line address
	KMsgSend                // message launched; Arg = type
	KMsgRecv                // handler ran; Arg = type
	KSteal                  // task stolen; Arg = victim node
	KDispatch               // thread dispatched; Arg = thread id
	KSuspend                // thread suspended; Arg = thread id
	KBarrier                // barrier episode completed; Arg = epoch
	KCheckFail              // invariant checker fired; Arg = line address or 0
	KRetransmit             // reliable sublayer resent a packet; Arg = sequence number
	KDupDrop                // reliable sublayer discarded a duplicate; Arg = sequence number
	kMax
)

var kindNames = [...]string{
	"miss", "fill", "inval", "recall", "writeback",
	"msg-send", "msg-recv", "steal", "dispatch", "suspend", "barrier",
	"check-fail", "retransmit", "dup-drop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	At   uint64
	Node int
	Kind Kind
	Arg  uint64
}

// Buffer is a bounded event ring. The zero value is unusable; call New.
// A nil *Buffer is a valid no-op sink: every method treats nil as the
// disabled state (enforced by the nilrecv analyzer).
//
//alewife:nil-safe
type Buffer struct {
	ring    []Event
	start   int // index of oldest
	n       int // live events
	dropped int
}

// New returns a buffer keeping the most recent cap events.
func New(cap int) *Buffer {
	if cap <= 0 {
		panic("trace: buffer capacity must be positive")
	}
	return &Buffer{ring: make([]Event, cap)}
}

// Emit records an event; on a full buffer the oldest is dropped.
//
//alewife:hotpath
func (b *Buffer) Emit(at uint64, node int, kind Kind, arg uint64) {
	if b == nil {
		return
	}
	// Full or not, the next slot is start+n: on a full ring that is the
	// oldest event's slot, which the new event overwrites.
	b.ring[(b.start+b.n)%len(b.ring)] = Event{At: at, Node: node, Kind: kind, Arg: arg}
	if b.n == len(b.ring) {
		b.start = (b.start + 1) % len(b.ring)
		b.dropped++
		return
	}
	b.n++
}

// Len reports the number of retained events; Dropped how many were lost to
// capacity.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Dropped reports how many events were evicted from the ring.
func (b *Buffer) Dropped() int {
	if b == nil {
		return 0
	}
	return b.dropped
}

// Events returns the retained events, oldest first.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, b.n)
	for i := 0; i < b.n; i++ {
		out[i] = b.ring[(b.start+i)%len(b.ring)]
	}
	return out
}

// Reset empties the buffer.
func (b *Buffer) Reset() {
	if b == nil {
		return
	}
	b.start, b.n, b.dropped = 0, 0, 0
}

// CountByKind aggregates retained events.
func (b *Buffer) CountByKind() map[Kind]int {
	if b == nil {
		return nil
	}
	out := make(map[Kind]int)
	for _, e := range b.Events() {
		out[e.Kind]++
	}
	return out
}

// NodeActivity counts retained events per node.
func (b *Buffer) NodeActivity() map[int]int {
	if b == nil {
		return nil
	}
	out := make(map[int]int)
	for _, e := range b.Events() {
		out[e.Node]++
	}
	return out
}

// Format renders up to max events as an aligned text listing.
func (b *Buffer) Format(max int) string {
	if b == nil {
		return ""
	}
	evs := b.Events()
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	var sb strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&sb, "%10d  n%-3d %-10s %#x\n", e.At, e.Node, e.Kind, e.Arg)
	}
	if b.dropped > 0 {
		fmt.Fprintf(&sb, "(%d earlier events dropped)\n", b.dropped)
	}
	return sb.String()
}

// Digest returns an FNV-1a hash of the retained events (oldest first) plus
// the dropped count: a cheap bit-identity fingerprint for determinism
// goldens. Two buffers with the same capacity digest equal iff they saw the
// same event sequence.
func (b *Buffer) Digest() uint64 {
	if b == nil {
		return New(1).Digest() // the empty-buffer fingerprint
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for i := 0; i < b.n; i++ {
		e := &b.ring[(b.start+i)%len(b.ring)]
		mix(e.At)
		mix(uint64(e.Node))
		mix(uint64(e.Kind))
		mix(e.Arg)
	}
	mix(uint64(b.dropped))
	return h
}

// Summary renders per-kind counts, sorted by kind.
func (b *Buffer) Summary() string {
	if b == nil {
		return ""
	}
	var sb strings.Builder
	for _, kc := range b.KindCounts() {
		fmt.Fprintf(&sb, "%-12s %8d\n", kc.Kind, kc.Count)
	}
	return sb.String()
}
