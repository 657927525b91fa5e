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
// Host memory grows with use, not with the address space: the words live in
// a two-level page table over the global word address. The top level holds
// one pointer per storeDirWords words of address space; a directory of
// storeDirPages page pointers and a page of storePageWords words are
// allocated on the first write inside them. A word on a page never written
// reads 0, and reading it allocates nothing.
type Store struct {
	nodes    int
	wordsPer uint64
	homeSh   uint        // log2(wordsPer)
	words    uint64      // nodes*wordsPer: every address in the store is below it
	top      []*storeDir // per storeDirWords words of address space, from 0
	brk      []uint64    // per-node bump allocator offset
}

// Page-table geometry. A page is 256 words (2 KB) and a directory 256 page
// pointers (2 KB), so one top-level pointer covers 2^16 words (512 KB) of
// simulated memory, and a 64-node machine of 1<<20-word modules has an 8 KB
// top level. Of the sizes from 256 to 2048 words and pointers measured on
// the e2ebench workloads, this pair allocates least on both paper
// workloads. A node that writes only a few words (a hybrid node's futures)
// pays one directory and one page, 4 KB, half what 512 and 512 cost it.
const (
	storePageShift = 8
	storePageWords = 1 << storePageShift
	storeDirShift  = 8
	storeDirPages  = 1 << storeDirShift
	storeTopShift  = storePageShift + storeDirShift
	storeDirWords  = 1 << storeTopShift
)

// MaxWords bounds the words a store spans, all nodes together. NewStore
// allocates the top level of the page table up front, one pointer per
// 2^16 words, so 2^36 words (512 GB of simulated memory) keep it at 8 MB;
// the default 64-node machine spans 2^26. machine.Config.Validate rejects
// a machine past the bound.
const MaxWords = 1 << 36

type (
	storePage [storePageWords]uint64
	storeDir  [storeDirPages]*storePage
)

// NewStore builds a store for n nodes with wordsPerNode words each, which
// must be a power of two: Home is on the request hot path and shifts. Only
// the top level of the page table is allocated; no word is until it is
// written.
func NewStore(n int, wordsPerNode uint64) *Store {
	if wordsPerNode == 0 || wordsPerNode&(wordsPerNode-1) != 0 {
		panic(fmt.Sprintf("mem: %d words per node is not a power of two", wordsPerNode))
	}
	words := uint64(n) * wordsPerNode
	s := &Store{
		nodes:    n,
		wordsPer: wordsPerNode,
		words:    words,
		top:      make([]*storeDir, (words+storeDirWords-1)/storeDirWords),
		brk:      make([]uint64, n),
	}
	for w := wordsPerNode; w > 1; w >>= 1 {
		s.homeSh++
	}
	return s
}

// Nodes returns the number of memory modules.
func (s *Store) Nodes() int { return s.nodes }

// WordsPerNode returns each node's memory size in words.
func (s *Store) WordsPerNode() uint64 { return s.wordsPer }

// Home returns the node whose memory holds a.
func (s *Store) Home(a Addr) int {
	h := int(uint64(a) >> s.homeSh)
	if h < 0 || h >= s.nodes {
		panic(fmt.Sprintf("mem: address %#x outside store", uint64(a)))
	}
	return h
}

// Read returns the word at a.
//
//alewife:hotpath
func (s *Store) Read(a Addr) uint64 {
	if uint64(a) >= s.words {
		panic("mem: Read outside store")
	}
	if d := s.top[a>>storeTopShift]; d != nil {
		if p := d[(a>>storePageShift)%storeDirPages]; p != nil {
			return p[a%storePageWords]
		}
	}
	return 0
}

// Write sets the word at a, allocating its directory and page on the first
// write inside them. Write's body is near the compiler's inlining budget,
// which TestStoreAccessorsInline guards.
//
//alewife:hotpath
func (s *Store) Write(a Addr, v uint64) {
	if uint64(a) >= s.words {
		panic("mem: Write outside store")
	}
	d := s.top[a>>storeTopShift]
	if d == nil {
		d = new(storeDir)
		s.top[a>>storeTopShift] = d
	}
	p := d[(a>>storePageShift)%storeDirPages]
	if p == nil {
		p = new(storePage)
		d[(a>>storePageShift)%storeDirPages] = p
	}
	p[a%storePageWords] = v
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
