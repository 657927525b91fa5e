package mem

// LState is a cache line's coherence state (MSI with E and M merged: a line
// granted exclusively is writable and assumed dirty, matching the timing of
// an invalidation-based write-allocate protocol).
type LState uint8

// Cache line states.
const (
	Invalid LState = iota
	Shared
	Exclusive
)

func (s LState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return "?"
}

type cline struct {
	tag   Addr // line address; valid only when state != Invalid
	state LState
	pf    bool // filled by an unconsumed prefetch (transaction-store artifact)
	lru   uint64
}

// Cache is a set-associative cache holding coherence metadata only (values
// live in the Store). It is a mechanical tag array: all protocol decisions
// live in Ctrl.
type Cache struct {
	sets, ways int
	lines      []cline // sets*ways entries, set-major
	tick       uint64

	// hold, when non-nil, is the holder index a LiveChecker reads; every
	// state change is mirrored into it for node, the cache's owner. Nil
	// (no checker) costs each change one test.
	hold *holderIndex
	node int
}

// NewCache builds a cache of the given geometry. sets must be a power of
// two.
func NewCache(sets, ways int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: cache sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("mem: cache ways must be positive")
	}
	return &Cache{sets: sets, ways: ways, lines: make([]cline, sets*ways)}
}

// Sets returns the number of sets; Ways the associativity.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// base returns the first index of the set holding line; the set occupies
// lines[base : base+ways]. Hot paths index from it directly rather than
// reslicing per probe.
func (c *Cache) base(line Addr) int {
	return int(uint64(line/LineWords)&uint64(c.sets-1)) * c.ways
}

func (c *Cache) set(line Addr) []cline {
	b := c.base(line)
	return c.lines[b : b+c.ways]
}

// State returns the coherence state of the line containing a.
func (c *Cache) State(a Addr) LState {
	line := a.Line()
	b := c.base(line)
	for i := b; i < b+c.ways; i++ {
		l := &c.lines[i]
		if l.state != Invalid && l.tag == line {
			return l.state
		}
	}
	return Invalid
}

// Touch refreshes LRU for a resident line (hit path).
func (c *Cache) Touch(a Addr) {
	line := a.Line()
	b := c.base(line)
	for i := b; i < b+c.ways; i++ {
		l := &c.lines[i]
		if l.state != Invalid && l.tag == line {
			c.tick++
			l.lru = c.tick
			return
		}
	}
}

// Prefetched reports whether the resident line was filled by a prefetch that
// has not yet been consumed by a demand write.
func (c *Cache) Prefetched(a Addr) bool {
	line := a.Line()
	b := c.base(line)
	for i := b; i < b+c.ways; i++ {
		l := &c.lines[i]
		if l.state != Invalid && l.tag == line {
			return l.pf
		}
	}
	return false
}

// SetPrefetched marks or clears the prefetch flag on a resident line; no-op
// when absent.
func (c *Cache) SetPrefetched(a Addr, v bool) {
	line := a.Line()
	b := c.base(line)
	for i := b; i < b+c.ways; i++ {
		l := &c.lines[i]
		if l.state != Invalid && l.tag == line {
			l.pf = v
			return
		}
	}
}

// held mirrors a state change into the holder index, when one is kept.
func (c *Cache) held(line Addr, st LState) {
	if c.hold != nil {
		c.hold.set(line, c.node, st)
	}
}

// SetState changes the state of a resident line; it is a no-op when absent
// (e.g. an invalidation for a silently evicted line).
//
//alewife:hotpath
func (c *Cache) SetState(a Addr, st LState) {
	line := a.Line()
	s := c.set(line)
	for i := range s {
		if s[i].state != Invalid && s[i].tag == line {
			if st == Invalid {
				s[i] = cline{}
			} else {
				s[i].state = st
			}
			c.held(line, st)
			return
		}
	}
}

// Insert fills a line in the given state, evicting the LRU way if the set is
// full. It returns the victim line address and state (victim==line means no
// eviction happened; the line may already be resident, in which case its
// state is updated in place).
//
//alewife:hotpath
func (c *Cache) Insert(a Addr, st LState) (victim Addr, victimState LState) {
	line := a.Line()
	s := c.set(line)
	c.tick++
	// Already resident: update state.
	for i := range s {
		if s[i].state != Invalid && s[i].tag == line {
			s[i].state = st
			s[i].lru = c.tick
			c.held(line, st)
			return line, Invalid
		}
	}
	// Free way.
	for i := range s {
		if s[i].state == Invalid {
			s[i] = cline{tag: line, state: st, lru: c.tick}
			c.held(line, st)
			return line, Invalid
		}
	}
	// Evict LRU.
	v := 0
	for i := 1; i < len(s); i++ {
		if s[i].lru < s[v].lru {
			v = i
		}
	}
	victim, victimState = s[v].tag, s[v].state
	s[v] = cline{tag: line, state: st, lru: c.tick}
	c.held(victim, Invalid)
	c.held(line, st)
	return victim, victimState
}

// Resident counts valid lines (for tests and occupancy stats).
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}

// InvalidateAll drops every line (used by tests and machine reset).
//
//alewife:hotpath
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		if l := &c.lines[i]; l.state != Invalid {
			c.held(l.tag, Invalid)
		}
		c.lines[i] = cline{}
	}
}
