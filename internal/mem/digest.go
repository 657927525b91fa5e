package mem

import "alewife/internal/sim"

// Protocol-state digests for the schedule explorer: a 64-bit fingerprint of
// every protocol-visible datum — directory entries, cache tags and states,
// outstanding transactions — used to recognize that two explored schedules
// have converged to the same state and prune the later one. Containers
// whose internal order is not protocol-visible (the directory's entries,
// the sharer list, a cache's pages and a set's ways) combine entries
// commutatively, so layout accidents (walk order, way position) never make
// equal states hash unequal. Purely temporal observables — LRU ticks, pipeline
// occupancy deadlines, the clock — are deliberately excluded: two states
// that differ only in timing still enable the same protocol transitions,
// which is the equivalence pruning wants.

// Digest fingerprints the whole memory system's protocol state.
func (f *Fabric) Digest() uint64 {
	h := uint64(0x416c6577696665) // "Alewife"
	for _, c := range f.Ctrls {
		h = sim.SplitMix64(h ^ c.digest())
	}
	return h
}

// digest fingerprints one controller: cached lines, directory entries and
// outstanding fills.
func (c *Ctrl) digest() uint64 {
	h := sim.SplitMix64(uint64(c.node) ^ 0xd16e57)

	// Cache: which lines are resident in which state. Way position and LRU
	// age only affect *when* future evictions happen, not what the protocol
	// can do now, so the combination is commutative and lru is skipped.
	var sum uint64
	c.cache.each(func(l *cline) error {
		x := uint64(l.tag)<<8 | uint64(l.state)<<1
		if l.pf {
			x |= 1
		}
		sum += sim.SplitMix64(x)
		return nil
	})
	h = sim.SplitMix64(h ^ sum)

	// Directory: full entry state per line, sharer sets combined
	// commutatively (the list's order is an insertion accident).
	sum = 0
	c.dir.each(func(line Addr, e *dirEntry) error {
		x := sim.SplitMix64(uint64(line)) ^ sim.SplitMix64(uint64(e.state)<<40|uint64(uint32(e.owner+1))<<8)
		if e.overflow {
			x ^= sim.SplitMix64(0x0f10)
		}
		var sh uint64
		for _, s := range e.sharers {
			sh += sim.SplitMix64(uint64(s) ^ 0x5a5a)
		}
		x ^= sh
		x ^= sim.SplitMix64(uint64(uint32(e.pendFrom+1))<<16 | uint64(uint32(e.pendAcks)))
		if dw := e.wait; dw != nil {
			for i := dw.head; i < len(dw.reqs); i++ {
				d := dw.reqs[i]
				w := uint64(0)
				if d.write {
					w = 1
				}
				// Deferred-queue order is protocol-visible (FIFO service), so
				// fold it in positionally.
				x = sim.SplitMix64(x ^ uint64(i-dw.head)<<32 ^ uint64(uint32(d.from))<<1 ^ w)
			}
		}
		sum += sim.SplitMix64(x)
		return nil
	})
	h = sim.SplitMix64(h ^ sum)

	// Outstanding fills: line and wanted state; gen and gate are pooling
	// artifacts.
	sum = 0
	for _, t := range c.txns {
		x := uint64(t.line)<<8 | uint64(t.want)<<1
		if t.prefetch {
			x |= 1
		}
		sum += sim.SplitMix64(x)
	}
	return sim.SplitMix64(h ^ sum)
}

// EventInfo implements sim.SinkInfo: a protocol event belongs to the
// destination controller's node and touches the line in p0. Grant arrivals
// are the exception and are reported opaque (node -1): filling a line can
// evict a victim on a different, unknowable-here line, so a grant never
// commutes with anything under partial-order reduction.
func (f *Fabric) EventInfo(op uint32, p0, p1 uint64) (int32, uint64) {
	if op&opKindMask == opGrant {
		return -1, 0
	}
	return int32(op >> opNodeShift), p0 | memKeySalt
}

// memKeySalt disambiguates Fabric keys (line addresses) from other sinks'
// key spaces, so cross-sink key collisions can never claim independence.
const memKeySalt = 1 << 62

// EachDirEntry visits every directory entry homed at this controller in
// ascending line address order, reporting the protocol-visible summary DirInfo gives plus
// the deferred-request count. Tests (the explorer's directory corner-state
// probes) use it to watch for transient configurations without knowing
// which lines exist.
func (c *Ctrl) EachDirEntry(fn func(line Addr, state string, sharers, owner int, overflow bool, deferred int)) {
	c.dir.each(func(line Addr, e *dirEntry) error {
		fn(line, dirStateName(e.state), len(e.sharers), int(e.owner), e.overflow, e.numDeferred())
		return nil
	})
}

// OutstandingFills reports the number of live fill transactions at this
// controller (tests).
func (c *Ctrl) OutstandingFills() int { return len(c.txns) }

// TxnRecycled reports how many times this controller's pooled transaction
// records have been retired and reissued — the sum of generation stamps
// across live and pooled records. Tests use it to confirm a schedule
// actually exercised gen-stamped FillTicket reuse.
func (c *Ctrl) TxnRecycled() uint64 {
	var n uint64
	for _, t := range c.txns {
		n += t.gen
	}
	for t := c.txnFree; t != nil; t = t.next {
		n += t.gen
	}
	return n
}
