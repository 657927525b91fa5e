package mem

import (
	"fmt"
	"math"
)

// Store is the authoritative global memory, distributed across nodes:
// node i owns word addresses [i*WordsPerNode, (i+1)*WordsPerNode). The home
// of an address is fixed by that partition, as in Alewife (physical memory
// distributed among the processing nodes).
//
// Host memory grows with use, not with the address space: each node's words
// live in their own slice, which reaches only as far as the highest word
// written so far, rounded up by doubling. A word past the end of its node's
// slice has never been written and reads 0.
type Store struct {
	nodes    int
	wordsPer uint64
	homeSh   uint       // log2(wordsPer) when it is a power of two, else 0
	offMask  uint64     // wordsPer-1 when homeSh is set
	mods     [][]uint64 // per node: the words [0, len) of its range
	brk      []uint64   // per-node bump allocator offset
}

// NewStore builds a store for n nodes with wordsPerNode words each. No
// word is allocated until it is written.
func NewStore(n int, wordsPerNode uint64) *Store {
	s := &Store{
		nodes:    n,
		wordsPer: wordsPerNode,
		mods:     make([][]uint64, n),
		brk:      make([]uint64, n),
	}
	if wordsPerNode > 1 && wordsPerNode&(wordsPerNode-1) == 0 {
		// Every configured machine uses a power-of-two module size; Home and
		// the accessors are on the request hot path, so turn their division
		// into a shift and a mask.
		for w := wordsPerNode; w > 1; w >>= 1 {
			s.homeSh++
		}
		s.offMask = wordsPerNode - 1
	}
	return s
}

// Nodes returns the number of memory modules.
func (s *Store) Nodes() int { return s.nodes }

// WordsPerNode returns each node's memory size in words.
func (s *Store) WordsPerNode() uint64 { return s.wordsPer }

// Home returns the node whose memory holds a.
func (s *Store) Home(a Addr) int {
	var h int
	if s.homeSh != 0 {
		h = int(uint64(a) >> s.homeSh)
	} else {
		h = int(uint64(a) / s.wordsPer)
	}
	if h < 0 || h >= s.nodes {
		panic(fmt.Sprintf("mem: address %#x outside store", uint64(a)))
	}
	return h
}

// split returns a's node and its offset in that node's memory. A node past
// the last one indexes s.mods out of range, so the accessors panic on an
// address outside the store.
func (s *Store) split(a Addr) (node, off uint64) {
	if s.homeSh != 0 {
		return uint64(a) >> s.homeSh, uint64(a) & s.offMask
	}
	return uint64(a) / s.wordsPer, uint64(a) % s.wordsPer
}

// Read returns the word at a.
func (s *Store) Read(a Addr) uint64 {
	n, off := s.split(a)
	if m := s.mods[n]; off < uint64(len(m)) {
		return m[off]
	}
	return 0
}

// Write sets the word at a. A write past the end of its node's slice grows
// the slice, at least doubling it so a run pays a logarithmic number of
// copies, and never past the node's range. append's runtime call keeps the
// growth out of line; Write's body is at the compiler's inlining budget,
// which TestStoreAccessorsInline guards.
func (s *Store) Write(a Addr, v uint64) {
	n, off := s.split(a)
	m := s.mods[n]
	if l := uint64(len(m)); off >= l {
		m = append(m, make([]uint64, min(max(2*l, off+1), s.wordsPer)-l)...)
		s.mods[n] = m
	}
	m[off] = v
}

// ReadF returns the word at a interpreted as a float64.
func (s *Store) ReadF(a Addr) float64 { return math.Float64frombits(s.Read(a)) }

// WriteF stores a float64 at a.
func (s *Store) WriteF(a Addr, v float64) { s.Write(a, math.Float64bits(v)) }

// AllocOn carves n words out of node's memory, line-aligned, and returns the
// base address. It panics when the node's memory is exhausted: simulated
// workloads size their data up front.
func (s *Store) AllocOn(node int, n uint64) Addr {
	if node < 0 || node >= s.nodes {
		panic(fmt.Sprintf("mem: AllocOn bad node %d", node))
	}
	// Line-align the allocation so distinct objects never share a line
	// (false sharing is introduced deliberately by tests, not by accident).
	b := (s.brk[node] + LineWords - 1) &^ (LineWords - 1)
	if b+n > s.wordsPer {
		panic(fmt.Sprintf("mem: node %d out of memory (%d + %d > %d words)",
			node, b, n, s.wordsPer))
	}
	s.brk[node] = b + n
	return Addr(uint64(node)*s.wordsPer + b)
}

// AllocStriped allocates n words on each of the given nodes and returns the
// per-node base addresses; convenient for block-distributed arrays.
func (s *Store) AllocStriped(nodes []int, n uint64) []Addr {
	out := make([]Addr, len(nodes))
	for i, nd := range nodes {
		out[i] = s.AllocOn(nd, n)
	}
	return out
}
