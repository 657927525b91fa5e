package mem

import (
	"math/rand"
	"testing"

	"alewife/internal/mesh"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

type harness struct {
	eng *sim.Engine
	fab *Fabric
	st  *stats.Machine
}

func newHarness(n int) *harness {
	eng := sim.NewEngine()
	w, h := mesh.Dims(n)
	st := stats.NewMachine(n)
	net := mesh.New(eng, w, h, mesh.DefaultParams(), st)
	store := NewStore(n, 1<<12)
	fab := NewFabric(eng, net, store, 5, st, 64, 2)
	return &harness{eng: eng, fab: fab, st: st}
}

// run spawns one context per body and drains the engine.
func (h *harness) run(t *testing.T, bodies ...func(*sim.Context)) {
	t.Helper()
	for i, b := range bodies {
		h.eng.Spawn("t", sim.Time(i), b) // stagger starts deterministically
	}
	h.eng.Run()
	if h.eng.Live() != 0 {
		t.Fatalf("deadlock: %d contexts blocked", h.eng.Live())
	}
	if err := h.fab.CheckConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

func TestLocalReadMiss(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(0, 4)
	var latency sim.Time
	h.run(t, func(c *sim.Context) {
		start := c.Now()
		h.fab.Ctrls[0].Read(c, a)
		latency = c.Now() - start
	})
	if st := h.fab.Ctrls[0].LineState(a); st != Shared {
		t.Fatalf("state after local read = %v, want S", st)
	}
	ds, n, _, _ := h.fab.Ctrls[0].DirInfo(a)
	if ds != "shared" || n != 1 {
		t.Fatalf("dir = %s/%d, want shared/1", ds, n)
	}
	if want := idleMissCycles(0); latency != want {
		t.Fatalf("local miss latency %d cycles, want %d", latency, want)
	}
}

func TestRemoteReadMiss(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(3, 4)
	h.fab.Store.Write(a, 0xbeef)
	var latency sim.Time
	h.run(t, func(c *sim.Context) {
		start := c.Now()
		h.fab.Ctrls[0].Read(c, a)
		latency = c.Now() - start
	})
	if want := idleMissCycles(h.fab.Net.Dist(0, 3)); latency != want {
		t.Fatalf("remote miss latency %d cycles, want %d", latency, want)
	}
	if got := h.fab.Store.Read(a); got != 0xbeef {
		t.Fatalf("value corrupted: %#x", got)
	}
}

// idleMissCycles is the closed form of a clean miss on an idle machine
// whose home is d hops from the requester, as a sum of the cost constants:
// the requester's issue cost, the request packet, the home's directory and
// memory occupancy, and the data grant back. A local miss (d = 0) sends no
// packet.
func idleMissCycles(d int) sim.Time {
	if d == 0 {
		return localMiss + dirCycles + memCycles
	}
	packet := func(bytes int) sim.Time {
		flits := uint64((bytes + mesh.FlitBytes - 1) / mesh.FlitBytes)
		return mesh.InjectDelay + uint64(d)*mesh.DefaultParams().RouterDelay + flits*mesh.FlitCycles + mesh.EjectDelay
	}
	return localMiss + packet(reqBytes) + dirCycles + memCycles + packet(dataBytes)
}

// A read or write miss to a clean line on an idle machine costs exactly
// idleMissCycles for its home's distance, on every mesh size: a cost term
// the constants do not name fails it.
func TestIdleMissLatencyClosedForm(t *testing.T) {
	for _, nodes := range []int{4, 16, 64} {
		for _, d := range []int{0, 1, 2, 6, 14} {
			for _, write := range []bool{false, true} {
				h := newHarness(nodes)
				home := -1
				for n := 0; n < nodes && home < 0; n++ {
					if h.fab.Net.Dist(0, n) == d {
						home = n
					}
				}
				if home < 0 {
					continue // no node that far on this mesh
				}
				a := h.fab.Store.AllocOn(home, 4)
				var lat sim.Time
				h.run(t, func(c *sim.Context) {
					start := c.Now()
					if write {
						h.fab.Ctrls[0].Write(c, a)
					} else {
						h.fab.Ctrls[0].Read(c, a)
					}
					lat = c.Now() - start
				})
				if want := idleMissCycles(d); lat != want {
					t.Errorf("%d nodes, d=%d, write=%v: miss took %d cycles, want %d", nodes, d, write, lat, want)
				}
			}
		}
	}
}

func TestWriteMissGrantsExclusive(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(2, 4)
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[0].Write(c, a)
	})
	if st := h.fab.Ctrls[0].LineState(a); st != Exclusive {
		t.Fatalf("state = %v, want E", st)
	}
	ds, _, owner, _ := h.fab.Ctrls[2].DirInfo(a)
	if ds != "excl" || owner != 0 {
		t.Fatalf("dir = %s owner %d, want excl owner 0", ds, owner)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[0].Read(c, a)
		if h.fab.Ctrls[0].LineState(a) != Shared {
			t.Error("expected Shared after read")
		}
		h.fab.Ctrls[0].Write(c, a)
	})
	if st := h.fab.Ctrls[0].LineState(a); st != Exclusive {
		t.Fatalf("state after upgrade = %v, want E", st)
	}
	if got := h.st.Global.Get(stats.CacheUpgrades); got != 1 {
		t.Fatalf("upgrades counted = %d, want 1", got)
	}
}

func TestWriterInvalidatesReaders(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(3, 4)
	h.run(t,
		func(c *sim.Context) { h.fab.Ctrls[0].Read(c, a) },
		func(c *sim.Context) { h.fab.Ctrls[1].Read(c, a) },
		func(c *sim.Context) {
			c.Sleep(500) // after both reads settle
			h.fab.Ctrls[2].Write(c, a)
		},
	)
	if st := h.fab.Ctrls[0].LineState(a); st != Invalid {
		t.Fatalf("reader 0 state = %v, want I", st)
	}
	if st := h.fab.Ctrls[1].LineState(a); st != Invalid {
		t.Fatalf("reader 1 state = %v, want I", st)
	}
	if st := h.fab.Ctrls[2].LineState(a); st != Exclusive {
		t.Fatalf("writer state = %v, want E", st)
	}
	if h.st.Global.Get(stats.ProtoInvals) == 0 {
		t.Fatal("no invalidation round counted")
	}
}

func TestReadRecallsDirtyLine(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(2, 4)
	h.run(t,
		func(c *sim.Context) { h.fab.Ctrls[0].Write(c, a) },
		func(c *sim.Context) {
			c.Sleep(500)
			h.fab.Ctrls[1].Read(c, a)
		},
	)
	if st := h.fab.Ctrls[0].LineState(a); st != Shared {
		t.Fatalf("old owner state = %v, want S (downgraded)", st)
	}
	if st := h.fab.Ctrls[1].LineState(a); st != Shared {
		t.Fatalf("reader state = %v, want S", st)
	}
	ds, n, _, _ := h.fab.Ctrls[2].DirInfo(a)
	if ds != "shared" || n != 2 {
		t.Fatalf("dir = %s/%d, want shared/2", ds, n)
	}
}

func TestWriteRecallsDirtyLine(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(2, 4)
	h.run(t,
		func(c *sim.Context) { h.fab.Ctrls[0].Write(c, a) },
		func(c *sim.Context) {
			c.Sleep(500)
			h.fab.Ctrls[1].Write(c, a)
		},
	)
	if st := h.fab.Ctrls[0].LineState(a); st != Invalid {
		t.Fatalf("old owner state = %v, want I", st)
	}
	if st := h.fab.Ctrls[1].LineState(a); st != Exclusive {
		t.Fatalf("new owner state = %v, want E", st)
	}
}

func TestThreePartyMissSlowerThanClean(t *testing.T) {
	// Clean remote miss vs. miss requiring a recall from a third node.
	clean := func() sim.Time {
		h := newHarness(9)
		a := h.fab.Store.AllocOn(4, 4)
		var lat sim.Time
		h.run(t, func(c *sim.Context) {
			start := c.Now()
			h.fab.Ctrls[0].Read(c, a)
			lat = c.Now() - start
		})
		return lat
	}()
	dirty := func() sim.Time {
		h := newHarness(9)
		a := h.fab.Store.AllocOn(4, 4)
		var lat sim.Time
		h.run(t,
			func(c *sim.Context) { h.fab.Ctrls[8].Write(c, a) },
			func(c *sim.Context) {
				c.Sleep(500)
				start := c.Now()
				h.fab.Ctrls[0].Read(c, a)
				lat = c.Now() - start
			},
		)
		return lat
	}()
	if dirty <= clean {
		t.Fatalf("3-party miss (%d) not slower than clean (%d)", dirty, clean)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	h := newHarness(2)
	// 64 sets x 2 ways: lines mapping to the same set differ by 64*LineWords.
	base := h.fab.Store.AllocOn(0, 4096)
	a0 := base
	a1 := base + 64*LineWords
	a2 := base + 2*64*LineWords
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[1].Write(c, a0)
		h.fab.Ctrls[1].Write(c, a1)
		h.fab.Ctrls[1].Write(c, a2) // evicts a0 (LRU) with writeback
	})
	if st := h.fab.Ctrls[1].LineState(a0); st != Invalid {
		t.Fatalf("victim state = %v, want I", st)
	}
	ds, _, _, _ := h.fab.Ctrls[0].DirInfo(a0)
	if ds != "idle" {
		t.Fatalf("victim dir = %s, want idle after WB", ds)
	}
	if h.st.Global.Get(stats.CacheWritebacks) != 1 {
		t.Fatalf("writebacks = %d, want 1", h.st.Global.Get(stats.CacheWritebacks))
	}
}

func TestLimitLESSOverflow(t *testing.T) {
	h := newHarness(9)
	a := h.fab.Store.AllocOn(0, 4)
	bodies := make([]func(*sim.Context), 0, 8)
	for i := 1; i < 9; i++ {
		i := i
		bodies = append(bodies, func(c *sim.Context) {
			c.Sleep(uint64(i) * 200)
			h.fab.Ctrls[i].Read(c, a)
		})
	}
	h.run(t, bodies...)
	_, n, _, overflow := h.fab.Ctrls[0].DirInfo(a)
	if n != 8 || !overflow {
		t.Fatalf("dir sharers=%d overflow=%v, want 8/true (5 hardware pointers)", n, overflow)
	}
	if h.st.Global.Get(stats.DirOverflows) != 1 {
		t.Fatalf("overflow events = %d, want 1", h.st.Global.Get(stats.DirOverflows))
	}
	home := h.fab.Ctrls[0]
	if home.trapOwed == 0 {
		t.Fatal("LimitLESS software handling stole no cycles from home processor")
	}
	// A writer now invalidates 8 sharers, paying software cost per sharer.
	stolenBefore := home.trapOwed
	h.eng.Spawn("w", h.eng.Now(), func(c *sim.Context) {
		home.Write(c, a)
	})
	h.eng.Run()
	if home.trapOwed <= stolenBefore {
		t.Fatal("overflowed invalidation round stole no software cycles")
	}
	// The processor's next Flush takes exactly the trap cycles counted.
	counted := uint64(h.st.Node[0].Get(stats.DirSWTrapCycles))
	if trap, handler := home.TakeStolen(); trap != counted || handler != 0 {
		t.Fatalf("TakeStolen = %d trap, %d handler cycles; want %d and 0", trap, handler, counted)
	}
	if trap, handler := home.TakeStolen(); trap != 0 || handler != 0 {
		t.Fatalf("second TakeStolen = %d, %d; want both cleared", trap, handler)
	}
	for i := 1; i < 9; i++ {
		if st := h.fab.Ctrls[i].LineState(a); st != Invalid {
			t.Fatalf("sharer %d not invalidated: %v", i, st)
		}
	}
}

// The overflow array only reserves home memory: the sharer set lives in the
// directory entry, so an overflow writes no simulated word and allocates no
// store page, and the reservation keeps every later allocation at its
// address. Nothing writes a's words, so a write into the array would be the
// first on its page.
func TestLimitLESSOverflowWritesNoMemory(t *testing.T) {
	h := newHarness(9)
	a := h.fab.Store.AllocOn(0, 4)
	pages := storePages(h.fab.Store)
	bodies := make([]func(*sim.Context), 0, 8)
	for i := 1; i < 9; i++ {
		i := i
		bodies = append(bodies, func(c *sim.Context) {
			c.Sleep(uint64(i) * 200)
			h.fab.Ctrls[i].Read(c, a)
		})
	}
	h.run(t, bodies...)
	if _, n, _, overflow := h.fab.Ctrls[0].DirInfo(a); n != 8 || !overflow {
		t.Fatalf("dir sharers=%d overflow=%v, want 8/true", n, overflow)
	}
	if got := storePages(h.fab.Store); got != pages {
		t.Fatalf("the store went from %d to %d pages on overflow", pages, got)
	}
	// a holds words 0-3 and the overflow array one word per node, 4-12,
	// so the next line-aligned allocation starts at word 14.
	if got := h.fab.Store.AllocOn(0, 1); got != 14 {
		t.Fatalf("next allocation on node 0 at %d, want 14", got)
	}
}

func TestPrefetchSharedThenUseful(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(3, 4)
	var missLat, prefLat sim.Time
	h.run(t, func(c *sim.Context) {
		start := c.Now()
		h.fab.Ctrls[0].Read(c, a+LineWords) // plain miss for reference
		missLat = c.Now() - start

		h.fab.Ctrls[0].Prefetch(a, false)
		c.Sleep(200) // let it land
		start = c.Now()
		h.fab.Ctrls[0].Read(c, a)
		prefLat = c.Now() - start
	})
	if prefLat != 0 {
		t.Fatalf("read after landed prefetch took %d cycles, want 0", prefLat)
	}
	if missLat == 0 {
		t.Fatal("reference miss took no time")
	}
	if h.st.Global.Get(stats.Prefetches) != 1 {
		t.Fatalf("prefetches = %d, want 1", h.st.Global.Get(stats.Prefetches))
	}
}

func TestPrefetchJoinedByDemandMiss(t *testing.T) {
	// A read joining a shared prefetch and a write joining an exclusive one
	// each count one miss and make the prefetch useful.
	for _, excl := range []bool{false, true} {
		h := newHarness(4)
		a := h.fab.Store.AllocOn(3, 4)
		h.run(t, func(c *sim.Context) {
			h.fab.Ctrls[0].Prefetch(a, excl)
			if excl {
				h.fab.Ctrls[0].Write(c, a) // joins in-flight prefetch
			} else {
				h.fab.Ctrls[0].Read(c, a)
			}
		})
		if h.st.Global.Get(stats.PrefetchUseful) != 1 {
			t.Fatalf("excl=%v: prefetch_useful = %d, want 1", excl, h.st.Global.Get(stats.PrefetchUseful))
		}
		if h.st.Global.Get(stats.CacheMisses) != 1 {
			t.Fatalf("excl=%v: misses = %d, want 1 (joined)", excl, h.st.Global.Get(stats.CacheMisses))
		}
	}
}

func TestPrefetchDroppedWhenBufferFull(t *testing.T) {
	h := newHarness(4)
	base := h.fab.Store.AllocOn(3, 64)
	h.run(t, func(c *sim.Context) {
		for i := 0; i < txnLimit+2; i++ {
			h.fab.Ctrls[0].Prefetch(base+Addr(i*LineWords), false)
		}
	})
	if got := h.st.Global.Get(stats.Prefetches); got != txnLimit {
		t.Fatalf("accepted prefetches = %d, want %d (txnLimit)", got, txnLimit)
	}
}

func TestExclusivePrefetch(t *testing.T) {
	h := newHarness(4)
	a := h.fab.Store.AllocOn(3, 4)
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[0].Prefetch(a, true)
		c.Sleep(200)
	})
	if st := h.fab.Ctrls[0].LineState(a); st != Exclusive {
		t.Fatalf("state after exclusive prefetch = %v, want E", st)
	}
}

func TestAtomicCounter(t *testing.T) {
	// N nodes increment a shared counter M times each through
	// AcquireExclusive; the final value proves atomicity under contention.
	const n, m = 8, 25
	h := newHarness(n)
	a := h.fab.Store.AllocOn(0, 4)
	bodies := make([]func(*sim.Context), 0, n)
	for i := 0; i < n; i++ {
		i := i
		bodies = append(bodies, func(c *sim.Context) {
			ctrl := h.fab.Ctrls[i]
			for k := 0; k < m; k++ {
				ctrl.AcquireExclusive(c, a)
				h.fab.Store.Write(a, h.fab.Store.Read(a)+1)
				c.Sleep(uint64(1 + (i+k)%5))
			}
		})
	}
	h.run(t, bodies...)
	if got := h.fab.Store.Read(a); got != n*m {
		t.Fatalf("counter = %d, want %d", got, n*m)
	}
}

func TestDeferredRequestsAllServed(t *testing.T) {
	// A burst of simultaneous writers to one line exercises the deferred
	// queue and recall machinery.
	const n = 16
	h := newHarness(n)
	a := h.fab.Store.AllocOn(0, 4)
	done := 0
	bodies := make([]func(*sim.Context), 0, n)
	for i := 0; i < n; i++ {
		i := i
		bodies = append(bodies, func(c *sim.Context) {
			h.fab.Ctrls[i].Write(c, a)
			done++
		})
	}
	h.run(t, bodies...)
	if done != n {
		t.Fatalf("only %d/%d writers completed", done, n)
	}
}

func TestRandomTrafficConsistency(t *testing.T) {
	// Fuzz the protocol: random reads/writes/prefetches from every node over
	// a small hot address set, then verify quiescent consistency. The rand
	// seed is fixed for determinism.
	const n = 8
	h := newHarness(n)
	rng := rand.New(rand.NewSource(42))
	addrs := make([]Addr, 12)
	for i := range addrs {
		addrs[i] = h.fab.Store.AllocOn(rng.Intn(n), 4)
	}
	bodies := make([]func(*sim.Context), 0, n)
	for i := 0; i < n; i++ {
		i := i
		seed := int64(i + 1)
		bodies = append(bodies, func(c *sim.Context) {
			r := rand.New(rand.NewSource(seed))
			ctrl := h.fab.Ctrls[i]
			for k := 0; k < 300; k++ {
				a := addrs[r.Intn(len(addrs))]
				switch r.Intn(4) {
				case 0:
					ctrl.Read(c, a)
				case 1:
					ctrl.Write(c, a)
				case 2:
					ctrl.Prefetch(a, r.Intn(2) == 0)
				case 3:
					ctrl.AcquireExclusive(c, a)
					h.fab.Store.Write(a, h.fab.Store.Read(a)+1)
				}
				c.Sleep(uint64(r.Intn(7) + 1))
			}
		})
	}
	h.run(t, bodies...) // run includes CheckConsistency
}

func TestDMAFlushAndInvalidate(t *testing.T) {
	h := newHarness(2)
	base := h.fab.Store.AllocOn(0, 8)
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[0].Write(c, base)  // dirty line 0
		h.fab.Ctrls[0].Read(c, base+4) // clean line 2
	})
	if cyc := h.fab.Ctrls[0].DMAFlush(base, 8); cyc == 0 {
		t.Fatal("flush of dirty range charged nothing")
	}
	cyc := h.fab.Ctrls[0].DMAInvalidate(base, 8)
	if cyc == 0 {
		t.Fatal("invalidate charged nothing")
	}
	if st := h.fab.Ctrls[0].LineState(base); st != Invalid {
		t.Fatalf("dirty line not invalidated: %v", st)
	}
	if st := h.fab.Ctrls[0].LineState(base + 4); st != Invalid {
		t.Fatalf("shared line not invalidated: %v", st)
	}
	// The Exclusive line's writeback is in flight; drain and check home.
	h.eng.Run()
	ds, _, _, _ := h.fab.Ctrls[0].DirInfo(base)
	if ds != "idle" {
		t.Fatalf("dir after DMA-invalidate WB = %s, want idle", ds)
	}
}

func TestStoreAllocator(t *testing.T) {
	s := NewStore(4, 1024)
	a := s.AllocOn(2, 10)
	if s.Home(a) != 2 {
		t.Fatalf("home of alloc = %d, want 2", s.Home(a))
	}
	b := s.AllocOn(2, 10)
	if b <= a || uint64(b-a) < 10 {
		t.Fatalf("allocations overlap: %d %d", a, b)
	}
	if uint64(b)%LineWords != 0 || uint64(a)%LineWords != 0 {
		t.Fatal("allocations not line aligned")
	}
	defer func() {
		msg, _ := recover().(string)
		if want := "mem: node 2 out of memory (20 + 100000 > 1024 words)"; msg != want {
			t.Fatalf("out-of-memory panic %q, want %q", msg, want)
		}
	}()
	s.AllocOn(2, 100000)
}

func TestCacheLRUAndGeometry(t *testing.T) {
	c := NewCache(2, 2) // 2 sets, 2 ways
	// Three lines mapping to set 0: 0, 4, 8 (LineWords=2, sets=2).
	c.Insert(0, Shared)
	c.Insert(4, Shared)
	c.Touch(0, Shared) // 4 becomes LRU
	v, vs := c.Insert(8, Shared)
	if v != 4 || vs != Shared {
		t.Fatalf("evicted %d/%v, want 4/S", v, vs)
	}
	if c.State(0) != Shared || c.State(8) != Shared || c.State(4) != Invalid {
		t.Fatal("LRU eviction picked wrong victim")
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	NewCache(3, 1)
}

func TestLatencyCalibration(t *testing.T) {
	// Guardrail: keep the calibrated latencies in the neighbourhood the
	// Alewife papers report (local miss ~10, clean remote miss ~30-60 on a
	// 64-node mesh between nearby nodes).
	h := newHarness(64)
	local := h.fab.Store.AllocOn(0, 4)
	remote := h.fab.Store.AllocOn(1, 4)
	far := h.fab.Store.AllocOn(63, 4)
	var lLocal, lRemote, lFar sim.Time
	h.run(t, func(c *sim.Context) {
		s := c.Now()
		h.fab.Ctrls[0].Read(c, local)
		lLocal = c.Now() - s
		s = c.Now()
		h.fab.Ctrls[0].Read(c, remote)
		lRemote = c.Now() - s
		s = c.Now()
		h.fab.Ctrls[0].Read(c, far)
		lFar = c.Now() - s
	})
	t.Logf("miss latencies: local=%d neighbour=%d far=%d", lLocal, lRemote, lFar)
	if lLocal < 5 || lLocal > 20 {
		t.Errorf("local miss %d outside [5,20]", lLocal)
	}
	if lRemote < 20 || lRemote > 60 {
		t.Errorf("neighbour miss %d outside [20,60]", lRemote)
	}
	if lFar <= lRemote {
		t.Errorf("far miss %d not slower than neighbour %d", lFar, lRemote)
	}
}
