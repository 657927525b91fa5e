package mem

import "alewife/internal/trace"

// DMA coherence hooks used by the CMMU's bulk-transfer path. Alewife's
// source-and-destination-coherent data transfer leaves the source and
// destination caches consistent with their local memories and deliberately
// takes no action on copies in *other* caches (the paper, Section 3).

// DMAFlush makes this node's cached copies of [base, base+words) consistent
// with memory for an outgoing DMA and returns the cycles the flush costs.
// Lines stay cached; dirty ones pay a per-line flush cost. In this simulator
// the store is authoritative so only timing is charged.
func (c *Ctrl) DMAFlush(base Addr, words uint64) (cycles uint64) {
	for line := base.Line(); line < base+Addr(words); line += LineWords {
		if c.cache.State(line) == Exclusive {
			cycles += memCycles
		}
	}
	return cycles
}

// DMAInvalidate removes this node's cached copies of [base, base+words) for
// an incoming DMA that overwrites the backing memory, returning the cycles
// charged. Shared lines drop silently; Exclusive lines write back through
// the normal protocol so the home directory stays sane.
func (c *Ctrl) DMAInvalidate(base Addr, words uint64) (cycles uint64) {
	for line := base.Line(); line < base+Addr(words); line += LineWords {
		switch c.cache.State(line) {
		case Shared:
			c.cache.SetState(line, Invalid)
			cycles++
			c.f.Check.event(trace.KInval, c.node, line)
		case Exclusive:
			c.cache.SetState(line, Invalid)
			c.writeback(line)
			cycles += memCycles
			c.f.Check.event(trace.KInval, c.node, line)
		}
	}
	return cycles
}
