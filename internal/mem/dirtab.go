package mem

import "math/bits"

// dirTab holds one home's directory entries in a page table indexed by the
// line's offset in the home's memory, the way Store and the holder index
// keep their per-home state. The entries of dirChunkLines consecutive lines
// are allocated together the first time one of them is requested, and the
// chunk's used bitmap records which of them have been. Entries are never
// freed — a line that has ever been requested at this home keeps its entry
// for the life of the run — and a chunk's entries never move when the chunk
// index grows, so entry pointers are stable and the steady state allocates
// nothing.
type dirTab struct {
	base   Addr       // first word of the home's memory
	chunks []dirChunk // per dirChunkLines lines of the home's memory, from base
}

// dirChunk is dirChunkLines consecutive lines of a home's memory: bit i of
// used is set once line i has been requested, and entries is allocated with
// the first such bit.
type dirChunk struct {
	used    uint64
	entries *[dirChunkLines]dirEntry
}

const dirChunkLines = 64

// get returns the entry for line, or nil when the line has never been
// requested at this home.
//
//alewife:hotpath
func (t *dirTab) get(line Addr) *dirEntry {
	i := uint64(line-t.base) / LineWords
	if c := i / dirChunkLines; c < uint64(len(t.chunks)) && t.chunks[c].used&(1<<(i%dirChunkLines)) != 0 {
		return &t.chunks[c].entries[i%dirChunkLines]
	}
	return nil
}

// getOrCreate returns the entry for line, creating an idle one on first
// request.
//
//alewife:hotpath
func (t *dirTab) getOrCreate(line Addr) *dirEntry {
	i := uint64(line-t.base) / LineWords
	c, bit := i/dirChunkLines, uint64(1)<<(i%dirChunkLines)
	if n := uint64(len(t.chunks)); c >= n {
		t.chunks = append(t.chunks, make([]dirChunk, c+1-n)...)
	}
	ch := &t.chunks[c]
	if ch.entries == nil {
		ch.entries = new([dirChunkLines]dirEntry)
	}
	e := &ch.entries[i%dirChunkLines]
	if ch.used&bit == 0 {
		ch.used |= bit
		e.state = dIdle
		e.owner = -1
	}
	return e
}

// each visits every entry in ascending line address order. Used only by
// quiescence sweeps, never on the hot path.
func (t *dirTab) each(fn func(line Addr, e *dirEntry) error) error {
	for c := range t.chunks {
		ch := &t.chunks[c]
		for u := ch.used; u != 0; u &= u - 1 {
			j := bits.TrailingZeros64(u)
			if err := fn(t.base+Addr((c*dirChunkLines+j)*LineWords), &ch.entries[j]); err != nil {
				return err
			}
		}
	}
	return nil
}
