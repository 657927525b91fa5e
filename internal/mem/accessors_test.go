package mem

import (
	"testing"

	"alewife/internal/sim"
)

func TestAddrLineMath(t *testing.T) {
	cases := []struct {
		a      Addr
		line   Addr
		offset int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 2, 0}, {3, 2, 1}, {7, 6, 1},
	}
	for _, c := range cases {
		if c.a.Line() != c.line || c.a.Offset() != c.offset {
			t.Errorf("addr %d: line %d offset %d, want %d/%d",
				c.a, c.a.Line(), c.a.Offset(), c.line, c.offset)
		}
	}
}

func TestStoreAccessors(t *testing.T) {
	s := NewStore(4, 512)
	if s.Nodes() != 4 || s.WordsPerNode() != 512 {
		t.Fatal("store geometry accessors wrong")
	}
	a := s.AllocOn(1, 2)
	s.WriteF(a, 2.5)
	if s.ReadF(a) != 2.5 {
		t.Fatal("float store accessors wrong")
	}
	bases := s.AllocStriped([]int{0, 2, 3}, 4)
	if len(bases) != 3 {
		t.Fatal("striped alloc wrong count")
	}
	for i, n := range []int{0, 2, 3} {
		if s.Home(bases[i]) != n {
			t.Fatalf("striped base %d homed on %d, want %d", i, s.Home(bases[i]), n)
		}
	}
}

func TestCacheAccessors(t *testing.T) {
	c := NewCache(8, 2)
	if c.Sets() != 8 || c.Ways() != 2 {
		t.Fatal("cache geometry accessors wrong")
	}
	c.Insert(0, Shared)
	c.Insert(16, Exclusive)
	if c.Resident() != 2 {
		t.Fatalf("resident = %d", c.Resident())
	}
	c.InvalidateAll()
	if c.Resident() != 0 {
		t.Fatal("invalidate-all incomplete")
	}
	for st, name := range map[LState]string{Invalid: "I", Shared: "S", Exclusive: "E", LState(9): "?"} {
		if st.String() != name {
			t.Fatalf("state %d string %q", st, st.String())
		}
	}
}

func TestFastPathsDirect(t *testing.T) {
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		if ctrl.FastRead(a) {
			t.Error("fast read hit on cold cache")
		}
		ctrl.Read(c, a)
		if !ctrl.FastRead(a) {
			t.Error("fast read missed on warm cache")
		}
		if ctrl.FastWrite(a) {
			t.Error("fast write hit on Shared line")
		}
		ctrl.Write(c, a)
		if !ctrl.FastWrite(a) {
			t.Error("fast write missed on Exclusive line")
		}
	})
}

func TestStartMissDirect(t *testing.T) {
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		tk := ctrl.startMiss(a, Shared)
		if tk.Hit() {
			t.Fatal("cold startMiss reported a hit")
		}
		ctrl.waitTicket(c, tk, a, Shared)
		if !ctrl.startMiss(a, Shared).Hit() {
			t.Fatal("warm shared startMiss not a hit")
		}
		// Upgrade path.
		tk = ctrl.startMiss(a, Exclusive)
		if tk.Hit() {
			t.Fatal("upgrade startMiss reported a hit")
		}
		ctrl.waitTicket(c, tk, a, Exclusive)
		if !ctrl.startMiss(a, Exclusive).Hit() {
			t.Fatal("exclusive startMiss not a hit after upgrade")
		}
	})
}

func TestStartMissJoinsOutstanding(t *testing.T) {
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		tk1 := ctrl.startMiss(a, Shared)
		tk2 := ctrl.startMiss(a, Shared)
		if tk1.Hit() || tk2.t == nil || tk2.t != tk1.t {
			t.Fatal("second startMiss did not join the outstanding fill")
		}
		ctrl.waitTicket(c, tk1, a, Shared)
	})
}

func TestStartMissPrefetchPenaltyGate(t *testing.T) {
	// Write after a landed shared prefetch gets a timed penalty ticket.
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		ctrl.Prefetch(a, false)
		c.Sleep(300)
		s := c.Now()
		tk := ctrl.startMiss(a, Exclusive)
		if tk.Hit() {
			t.Fatal("penalized write reported a free hit")
		}
		ctrl.waitTicket(c, tk, a, Exclusive)
		if c.Now()-s != prefetchWritePenalty {
			t.Fatalf("penalty ticket waited %d, want %d", c.Now()-s, prefetchWritePenalty)
		}
	})
}
