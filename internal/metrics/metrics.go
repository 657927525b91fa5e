// Package metrics is the simulator's cycle-attribution profiler: it
// classifies every simulated cycle of every node into a small set of
// buckets so a run can say not just how long it took but where the time
// went — the decomposition the paper's Figures 7-10 argue from.
//
// Buckets come in two groups:
//
//   - timeline buckets (Compute .. Untracked) partition each node's wall
//     clock: at Finalize their sum equals the elapsed cycle count exactly,
//     per node, and the invariant is checked;
//   - overlay buckets (DirPipeline ..) meter concurrent resources — the
//     directory/memory pipeline, network links, the receive port — whose
//     busy time overlaps processor time and therefore must not enter the
//     sum-to-elapsed identity.
//
// A nil *Profiler is the disabled state. Instrumented subsystems reach
// the profiler through the machine's instrumentation handle
// (stats.Machine.Prof, charged with stats.Machine.Charge), so a run
// without metrics pays one nil check per hook.
package metrics

import (
	"fmt"
	"strings"
)

// Bucket classifies a cycle.
type Bucket int8

// NoBucket is a region tag meaning "do not attribute": used by the
// scheduler while a dispatched thread's own processor covers the interval.
const NoBucket Bucket = -1

// Timeline buckets (partition the wall clock per node), then overlay
// buckets (concurrent resource occupancy, excluded from the partition).
const (
	Compute   Bucket = iota // local computation retired by the processor
	CacheHit                // cycles in cache-hit accesses
	MissStall               // processor stalled on the memory system
	DirTrap                 // LimitLESS software handling stolen from the home processor
	Handler                 // message cycles: handler occupancy stolen at the receiver plus describe/launch at the sender
	SyncWait                // barrier/lock/future wait (spin or block)
	Idle                    // scheduler overhead: switch, steal, backoff, empty-queue wait
	Untracked               // elapsed cycles nothing claimed (a node before/after its work)

	DirPipeline // overlay: directory/memory pipeline occupancy at the home
	NetTransit  // overlay: unloaded wire time of injected packets
	NetQueue    // overlay: packet delay beyond unloaded time (contention, FIFO, jitter)
	MsgQueue    // overlay: packets waiting for a busy receive port
	RelStall    // overlay: retransmit-timer stalls (timer arm to a firing that resent)
	RelQueue    // overlay: out-of-order packets parked in the reliability reorder window

	NumBuckets

	// NumTimeline is the count of timeline buckets; [0, NumTimeline) sums
	// to elapsed cycles per node after Finalize.
	NumTimeline = Untracked + 1
)

var bucketNames = [NumBuckets]string{
	"compute", "cache-hit", "miss-stall", "dir-trap", "handler",
	"sync-wait", "idle", "untracked",
	"dir-pipeline", "net-transit", "net-queue", "msg-queue",
	"rel-timeout-stall", "rel-reorder-queue",
}

func (b Bucket) String() string {
	if b >= 0 && b < NumBuckets {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket(%d)", int8(b))
}

// Overlay reports whether b meters a concurrent resource rather than
// partitioning processor time.
func (b Bucket) Overlay() bool { return b >= DirPipeline && b < NumBuckets }

// Profiler accumulates per-node bucket counts. It is owned by one machine
// and therefore by one goroutine; counters are plain integers bumped on
// the hot path with no allocation. A nil *Profiler is the disabled state:
// every method no-ops on it (enforced by the nilrecv analyzer).
//
//alewife:nil-safe
type Profiler struct {
	counts  [][NumBuckets]uint64
	elapsed uint64
	final   bool
}

// New returns a profiler for an n-node machine.
func New(n int) *Profiler {
	if n < 1 {
		panic("metrics: need at least one node")
	}
	return &Profiler{counts: make([][NumBuckets]uint64, n)}
}

// Nodes returns the node count.
func (p *Profiler) Nodes() int {
	if p == nil {
		return 0
	}
	return len(p.counts)
}

// Add charges cycles to a bucket on a node. Nil-safe, so no call site
// guards it.
//
//alewife:hotpath
func (p *Profiler) Add(node int, b Bucket, cycles uint64) {
	if p == nil || cycles == 0 || b < 0 {
		return
	}
	p.counts[node][b] += cycles
}

// Get returns one counter.
func (p *Profiler) Get(node int, b Bucket) uint64 {
	if p == nil {
		return 0
	}
	return p.counts[node][b]
}

// Total sums a bucket across nodes.
func (p *Profiler) Total(b Bucket) uint64 {
	if p == nil {
		return 0
	}
	var t uint64
	for i := range p.counts {
		t += p.counts[i][b]
	}
	return t
}

// Elapsed returns the cycle count Finalize was given.
func (p *Profiler) Elapsed() uint64 {
	if p == nil {
		return 0
	}
	return p.elapsed
}

// Finalize closes the run at the given elapsed cycle count: every node's
// unclaimed remainder becomes Untracked. A node whose attributed cycles
// exceed elapsed means some interval was charged twice; that is a bug in
// the instrumentation, reported as an error and never papered over.
func (p *Profiler) Finalize(elapsed uint64) error {
	if p == nil {
		return nil
	}
	if p.final {
		return fmt.Errorf("metrics: Finalize called twice")
	}
	p.final = true
	p.elapsed = elapsed
	for n := range p.counts {
		var sum uint64
		for b := Bucket(0); b < NumTimeline; b++ {
			sum += p.counts[n][b]
		}
		if sum > elapsed {
			return fmt.Errorf("metrics: node %d over-attributed: %d cycles in timeline buckets, %d elapsed",
				n, sum, elapsed)
		}
		p.counts[n][Untracked] = elapsed - sum
	}
	return nil
}

// CheckInvariant verifies, post-Finalize, that every node's timeline
// buckets sum exactly to the elapsed cycles.
func (p *Profiler) CheckInvariant() error {
	if p == nil {
		return nil
	}
	if !p.final {
		return fmt.Errorf("metrics: CheckInvariant before Finalize")
	}
	for n := range p.counts {
		var sum uint64
		for b := Bucket(0); b < NumTimeline; b++ {
			sum += p.counts[n][b]
		}
		if sum != p.elapsed {
			return fmt.Errorf("metrics: node %d timeline buckets sum to %d, elapsed %d", n, sum, p.elapsed)
		}
	}
	return nil
}

// Share returns a bucket's machine-wide share of node-cycles
// (total / (elapsed * nodes)). Overlay shares may legitimately exceed
// nothing-in-particular; they are occupancy relative to total node time.
func (p *Profiler) Share(b Bucket) float64 {
	if p == nil {
		return 0
	}
	if p.elapsed == 0 {
		return 0
	}
	return float64(p.Total(b)) / (float64(p.elapsed) * float64(len(p.counts)))
}

// Shares returns every non-zero bucket's machine-wide share, keyed by
// bucket name. The map is for serialization (encoding/json sorts keys);
// human output should use String, which orders by bucket index.
func (p *Profiler) Shares() map[string]float64 {
	if p == nil {
		return nil
	}
	out := make(map[string]float64, NumBuckets)
	for b := Bucket(0); b < NumBuckets; b++ {
		if s := p.Share(b); s != 0 {
			out[b.String()] = s
		}
	}
	return out
}

// String renders the machine-wide breakdown, one bucket per line in
// bucket order: cycles and share of node-time, overlay buckets marked.
func (p *Profiler) String() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	for b := Bucket(0); b < NumBuckets; b++ {
		t := p.Total(b)
		if t == 0 && b.Overlay() {
			continue
		}
		tag := ""
		if b.Overlay() {
			tag = "  (overlay)"
		}
		fmt.Fprintf(&sb, "%-13s %14d  %6.2f%%%s\n", b, t, 100*p.Share(b), tag)
	}
	return sb.String()
}
