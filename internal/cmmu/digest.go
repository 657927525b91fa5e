package cmmu

import "alewife/internal/sim"

// State digests for the schedule explorer, mirroring mem's: fingerprints of
// the protocol-visible message-layer state. Temporal fields (port-free
// deadlines, retransmit deadlines, backoff magnitudes) are excluded — they
// shift when transitions happen, not which transitions are possible.

// Digest fingerprints this message unit's protocol-visible state: the
// interrupt mask and the queue of undelivered messages. Queue order is
// delivery order, so it is folded in positionally.
func (c *CMMU) Digest() uint64 {
	h := sim.SplitMix64(uint64(c.node) ^ 0xc3301)
	if c.masked {
		h = sim.SplitMix64(h ^ 1)
	}
	for i, env := range c.queued {
		h = sim.SplitMix64(h ^ uint64(i)<<32 ^ uint64(uint32(env.Type))<<8 ^ uint64(uint32(env.Src)))
	}
	return h
}

// Digest fingerprints the reliability sublayer: per-pair sender and
// receiver sequence state, unacked packet counts, retry consumption and
// the occupied reorder-window slots. Pairs still in their zero state are
// skipped, so machines that never talked on a pair hash like ones where
// the pair does not exist.
func (r *Reliable) Digest() uint64 {
	var sum uint64
	for pair := range r.pairs {
		ps := &r.pairs[pair]
		if ps.nextSeq == 0 && ps.recvNext == 0 && len(ps.pending) == 0 && !ps.dead {
			continue
		}
		x := sim.SplitMix64(uint64(pair) + 1)
		x ^= sim.SplitMix64(ps.nextSeq<<20 ^ ps.base)
		x ^= sim.SplitMix64(ps.recvNext<<8 ^ uint64(len(ps.pending))<<1 ^ uint64(uint32(ps.retries))<<32)
		if ps.dead {
			x ^= sim.SplitMix64(0xdead)
		}
		var win uint64
		for _, s := range ps.window {
			if s.ok {
				win += sim.SplitMix64(s.seq ^ 0x733a)
			}
		}
		x ^= win
		sum += sim.SplitMix64(x)
	}
	return sim.SplitMix64(sum ^ 0x4e1)
}

// EventInfo implements sim.SinkInfo. Acks and retransmit timers touch only
// one pair's sender-side state, so they carry the pair as their key and
// the sending node as their owner: two of them on different pairs at
// different senders commute. Data deliveries are opaque (node -1) — firing
// one releases a retained inner event that runs an arbitrary protocol
// handler, so nothing may be assumed to commute with it.
func (r *Reliable) EventInfo(op uint32, p0, p1 uint64) (int32, uint64) {
	if op == opRelData {
		return -1, 0
	}
	return int32(int(p0) / r.n), p0 | relKeySalt
}

// relKeySalt disambiguates Reliable keys (pair indices) from other sinks'
// key spaces.
const relKeySalt = 2 << 62
