package mem

import (
	"math/rand"
	"testing"
)

// flatCache is the tag array as one flat slice of sets*ways lines, the
// layout Cache had before it was paged, kept as the reference model the
// paged cache must agree with probe for probe and victim for victim.
type flatCache struct {
	sets, ways int
	lines      []cline // sets*ways entries, set-major
	tick       uint64
}

func newFlatCache(sets, ways int) *flatCache {
	return &flatCache{sets: sets, ways: ways, lines: make([]cline, sets*ways)}
}

func (c *flatCache) set(line Addr) []cline {
	b := int(uint64(line/LineWords)&uint64(c.sets-1)) * c.ways
	return c.lines[b : b+c.ways]
}

// find returns the resident way holding a's line, or nil.
func (c *flatCache) find(a Addr) *cline {
	line := a.Line()
	s := c.set(line)
	for i := range s {
		if s[i].state != Invalid && s[i].tag == line {
			return &s[i]
		}
	}
	return nil
}

func (c *flatCache) State(a Addr) LState {
	if l := c.find(a); l != nil {
		return l.state
	}
	return Invalid
}

func (c *flatCache) Touch(a Addr) {
	if l := c.find(a); l != nil {
		c.tick++
		l.lru = c.tick
	}
}

func (c *flatCache) Prefetched(a Addr) bool {
	l := c.find(a)
	return l != nil && l.pf
}

func (c *flatCache) SetPrefetched(a Addr, v bool) {
	if l := c.find(a); l != nil {
		l.pf = v
	}
}

func (c *flatCache) SetState(a Addr, st LState) {
	if l := c.find(a); l != nil {
		if st == Invalid {
			*l = cline{}
		} else {
			l.state = st
		}
	}
}

func (c *flatCache) Insert(a Addr, st LState) (victim Addr, victimState LState) {
	line := a.Line()
	c.tick++
	if l := c.find(line); l != nil {
		l.state, l.lru = st, c.tick
		return line, Invalid
	}
	s := c.set(line)
	for i := range s {
		if s[i].state == Invalid {
			s[i] = cline{tag: line, state: st, lru: c.tick}
			return line, Invalid
		}
	}
	v := 0
	for i := 1; i < len(s); i++ {
		if s[i].lru < s[v].lru {
			v = i
		}
	}
	victim, victimState = s[v].tag, s[v].state
	s[v] = cline{tag: line, state: st, lru: c.tick}
	return victim, victimState
}

func (c *flatCache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}

func (c *flatCache) InvalidateAll() { clear(c.lines) }

// cacheGeometries are the shapes the cache tests cover: the paper's
// 2048-set, 2-way cache (many pages), one page of 8 sets, and 4 sets, fewer
// than a page holds.
var cacheGeometries = []struct{ sets, ways int }{{2048, 2}, {8, 2}, {4, 1}}

// The paged cache agrees with the flat reference on every probe, every
// victim and every resident count under a seeded random sequence of
// operations. A few sets spread over the pages take all the traffic, each
// contended by more lines than it has ways, so most pages stay cold and
// the LRU choice decides many fills.
func TestCacheMatchesFlatReference(t *testing.T) {
	for _, g := range cacheGeometries {
		c, ref := NewCache(g.sets, g.ways), newFlatCache(g.sets, g.ways)
		rng := rand.New(rand.NewSource(int64(g.sets*g.ways + 1)))
		hot := make([]uint64, 6)
		for i := range hot {
			hot[i] = uint64(rng.Intn(g.sets))
		}
		pick := func() Addr {
			set, tag := hot[rng.Intn(len(hot))], uint64(rng.Intn(g.ways+2))
			return Addr((tag*uint64(g.sets)+set)*LineWords + uint64(rng.Intn(LineWords)))
		}
		for i := 0; i < 20000; i++ {
			a := pick()
			st := LState(rng.Intn(3))
			want := LState(1 + rng.Intn(2)) // Shared or Exclusive
			switch op := rng.Intn(100); {
			case op < 25:
				v, vs := c.Insert(a, want)
				if rv, rvs := ref.Insert(a, want); v != rv || vs != rvs {
					t.Fatalf("%dx%d op %d: Insert(%#x, %v) evicted %#x/%v, want %#x/%v",
						g.sets, g.ways, i, uint64(a), want, uint64(v), vs, uint64(rv), rvs)
				}
			case op < 40:
				c.SetState(a, st)
				ref.SetState(a, st)
			case op < 60:
				hit := ref.State(a) >= want
				if hit {
					ref.Touch(a)
				}
				if got := c.Touch(a, want); got != hit {
					t.Fatalf("%dx%d op %d: Touch(%#x, %v) = %v, want %v", g.sets, g.ways, i, uint64(a), want, got, hit)
				}
			case op < 75:
				if got, w := c.State(a), ref.State(a); got != w {
					t.Fatalf("%dx%d op %d: State(%#x) = %v, want %v", g.sets, g.ways, i, uint64(a), got, w)
				}
			case op < 85:
				if got, w := c.Prefetched(a), ref.Prefetched(a); got != w {
					t.Fatalf("%dx%d op %d: Prefetched(%#x) = %v, want %v", g.sets, g.ways, i, uint64(a), got, w)
				}
			case op < 99:
				v := rng.Intn(2) == 0
				c.SetPrefetched(a, v)
				ref.SetPrefetched(a, v)
			default:
				c.InvalidateAll()
				ref.InvalidateAll()
			}
			if got, w := c.Resident(), ref.Resident(); got != w {
				t.Fatalf("%dx%d op %d: Resident() = %d, want %d", g.sets, g.ways, i, got, w)
			}
		}
	}
}

// Probing a page no line has been filled in allocates nothing and leaves
// the page cold; InvalidateAll leaves cold pages cold.
func TestCacheColdPageProbes(t *testing.T) {
	c := NewCache(2048, 2)
	c.Insert(0, Exclusive) // fills page 0
	a := Addr(5 * pageSets * LineWords)
	allocs := testing.AllocsPerRun(100, func() {
		c.State(a)
		c.Touch(a, Shared)
		c.Prefetched(a)
		c.SetPrefetched(a, true)
		c.SetState(a, Exclusive)
		c.SetState(a, Invalid)
	})
	if allocs != 0 {
		t.Errorf("probes of a cold page allocated %v times per run, want 0", allocs)
	}
	c.InvalidateAll()
	for i, p := range c.pages {
		if cold := c.isCold(p); cold != (i != 0) {
			t.Errorf("page %d cold = %v after cold probes and InvalidateAll, want %v", i, cold, i != 0)
		}
	}
	if n := c.Resident(); n != 0 {
		t.Errorf("Resident() = %d after InvalidateAll, want 0", n)
	}
}
