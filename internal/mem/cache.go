package mem

// LState is a cache line's coherence state (MSI with E and M merged: a line
// granted exclusively is writable and assumed dirty, matching the timing of
// an invalidation-based write-allocate protocol).
type LState uint8

// Cache line states, weakest first: a line held Exclusive also satisfies
// a probe for Shared (see Touch).
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
//
// The tag array is kept in pages of pageSets sets. Until Insert fills a line
// in a page, the page aliases cold, the cache's one all-Invalid page: the
// probes scan it like any other page and find nothing, so a cache pays host
// memory only for the pages its run fills.
type Cache struct {
	mask  uint // sets-1
	ways  int
	pages [][]cline // per pageSets sets: their lines, set-major
	cold  []cline   // the all-Invalid page every unfilled page aliases
	tick  uint64

	// hold, when non-nil, is the holder index a LiveChecker reads; every
	// state change is mirrored into it for node, the cache's owner. Nil
	// (no checker) costs each change one test.
	hold *holderIndex
	node int
}

// pageSets is the number of sets in a page of the tag array (a cache with
// fewer sets is one page).
const pageSets = 64

// NewCache builds a cache of the given geometry. sets must be a power of
// two.
func NewCache(sets, ways int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: cache sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("mem: cache ways must be positive")
	}
	c := &Cache{mask: uint(sets - 1), ways: ways,
		pages: make([][]cline, (sets+pageSets-1)/pageSets),
		cold:  make([]cline, min(sets, pageSets)*ways)}
	for i := range c.pages {
		c.pages[i] = c.cold
	}
	return c
}

// Sets returns the number of sets; Ways the associativity.
func (c *Cache) Sets() int { return int(c.mask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// set returns the ways of the set holding line.
func (c *Cache) set(line Addr) []cline {
	s := uint(line/LineWords) & c.mask
	return c.pages[s/pageSets][int(s%pageSets)*c.ways:][:c.ways]
}

// isCold reports whether page p is the shared all-Invalid page.
func (c *Cache) isCold(p []cline) bool { return &p[0] == &c.cold[0] }

// State returns the coherence state of the line containing a.
func (c *Cache) State(a Addr) LState {
	line := a.Line()
	for _, l := range c.set(line) {
		if l.state != Invalid && l.tag == line {
			return l.state
		}
	}
	return Invalid
}

// Touch refreshes LRU for the line containing a when it is resident in
// state want (Shared or Exclusive) or stronger, and reports whether it was:
// the hit test and the hit's LRU update in one set scan.
func (c *Cache) Touch(a Addr, want LState) bool {
	line := a.Line()
	s := c.set(line)
	for i, l := range s {
		if l.state >= want && l.tag == line {
			c.tick++
			s[i].lru = c.tick
			return true
		}
	}
	return false
}

// Prefetched reports whether the resident line was filled by a prefetch that
// has not yet been consumed by a demand write.
func (c *Cache) Prefetched(a Addr) bool {
	line := a.Line()
	for _, l := range c.set(line) {
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
	s := c.set(line)
	for i, l := range s {
		if l.state != Invalid && l.tag == line {
			s[i].pf = v
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
	// A cold page gets its own lines before the first one is filled.
	if p := &c.pages[uint(line/LineWords)&c.mask/pageSets]; c.isCold(*p) {
		*p = make([]cline, len(c.cold))
	}
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
	c.each(func(*cline) error { n++; return nil })
	return n
}

// each calls fn on every resident line in set order, skipping cold pages,
// and returns fn's first error.
func (c *Cache) each(fn func(l *cline) error) error {
	for _, p := range c.pages {
		if c.isCold(p) {
			continue
		}
		for i := range p {
			if p[i].state == Invalid {
				continue
			}
			if err := fn(&p[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// InvalidateAll drops every line (used by tests and machine reset).
//
//alewife:hotpath
func (c *Cache) InvalidateAll() {
	for _, p := range c.pages {
		if c.isCold(p) {
			continue
		}
		for i := range p {
			if p[i].state != Invalid {
				c.held(p[i].tag, Invalid)
			}
		}
		clear(p)
	}
}
