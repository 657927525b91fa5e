package mem

// holderIndex records which nodes hold each cached line: a valid bitset and
// an Exclusive bitset of ⌈nodes/64⌉ words per line, so any machine size fits
// without a fallback scan. The caches keep it current from their own
// mutators (Insert, SetState, InvalidateAll) while a LiveChecker is
// attached, which lets the checker find a line's holders without probing
// every cache on every protocol event.
//
// Bitsets are kept per home node and indexed by the line's offset in that
// home's memory. Each home's array grows only as far as the highest line a
// cache has held, so the index costs nothing for the rest of the address
// space.
type holderIndex struct {
	store *Store
	words int        // uint64 words per bitset
	homes [][]uint64 // per home, per line slot: valid words, then exclusive words
}

func newHolderIndex(store *Store, nodes int) *holderIndex {
	return &holderIndex{
		store: store,
		words: (nodes + 63) / 64,
		homes: make([][]uint64, store.Nodes()),
	}
}

// slot returns line's home and the index of its first valid word there.
func (ix *holderIndex) slot(line Addr) (home, i int) {
	home = ix.store.Home(line)
	off := uint64(line) - uint64(home)*ix.store.wordsPer
	return home, int(off/LineWords) * 2 * ix.words
}

// set records that node now holds line in state st (Invalid: not at all).
//
//alewife:hotpath
func (ix *holderIndex) set(line Addr, node int, st LState) {
	h, i := ix.slot(line)
	b := ix.homes[h]
	if i >= len(b) {
		if st == Invalid {
			return // never held since the index was built
		}
		b = ix.grow(h, i)
	}
	w, bit := i+node>>6, uint64(1)<<(node&63)
	b[w] &^= bit
	b[w+ix.words] &^= bit
	if st != Invalid {
		b[w] |= bit
	}
	if st == Exclusive {
		b[w+ix.words] |= bit
	}
}

// grow extends home h's array to cover the slot at i, at least doubling it
// so a run pays a logarithmic number of copies.
func (ix *holderIndex) grow(h, i int) []uint64 {
	old := ix.homes[h]
	b := make([]uint64, max(2*len(old), i+2*ix.words))
	copy(b, old)
	ix.homes[h] = b
	return b
}

// holders returns line's home and its valid and Exclusive bitsets; both
// are nil when no cache has held the line since the index was built.
//
//alewife:hotpath
func (ix *holderIndex) holders(line Addr) (home int, valid, excl []uint64) {
	home, i := ix.slot(line)
	b := ix.homes[home]
	if i >= len(b) {
		return home, nil, nil
	}
	return home, b[i : i+ix.words], b[i+ix.words : i+2*ix.words]
}
