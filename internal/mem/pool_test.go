package mem

// Tests for the pooled directory/transaction machinery that replaced the
// map-based hot path: table behavior across growth, transaction record
// recycling, ticket staleness across retirement, and the eviction and
// LimitLESS-overflow paths exercised on pooled entries.

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"alewife/internal/mesh"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

func TestDirTabBasics(t *testing.T) {
	var tab dirTab
	if tab.get(0) != nil {
		t.Fatal("empty table returned an entry")
	}
	// Insert across several chunks so the chunk index grows, starting at
	// line address 0 (a legal key: node 0's memory starts at word 0).
	const n = 500
	ptrs := make([]*dirEntry, n)
	for i := 0; i < n; i++ {
		line := Addr(i * LineWords)
		e := tab.getOrCreate(line)
		if e == nil || e.state != dIdle || e.owner != -1 {
			t.Fatalf("line %d: fresh entry not idle", i)
		}
		e.owner = int32(i) // mark so reuse is detectable
		ptrs[i] = e
	}
	if got := dirCount(&tab); got != n {
		t.Fatalf("occupancy %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		line := Addr(i * LineWords)
		if got := tab.get(line); got != ptrs[i] {
			t.Fatalf("line %d: entry pointer moved as the chunk index grew", i)
		}
		if got := tab.getOrCreate(line); got != ptrs[i] || int(got.owner) != i {
			t.Fatalf("line %d: getOrCreate did not find existing entry", i)
		}
	}
	// Finding the existing entries created none.
	if got := dirCount(&tab); got != n {
		t.Fatalf("each visited %d entries, want %d", got, n)
	}
}

// A run keeps about a million directory entries, allocated dirChunkLines
// at a time, so an entry stays at 48 bytes: a chunk is then 3,072 bytes,
// exactly one of the heap's size classes.
func TestDirEntrySize(t *testing.T) {
	const want = 48
	if sz := unsafe.Sizeof(dirEntry{}); sz > want {
		chunk := sz * dirChunkLines
		t.Errorf("dirEntry is %d bytes, want at most %d: a %d-line chunk is %d bytes, in %s instead of the 3072-byte class",
			sz, want, dirChunkLines, chunk, sizeClass(chunk))
	}
}

// sizeClass names the Go heap size class an n-byte object is rounded up
// to, for n up to 8 KB.
func sizeClass(n uintptr) string {
	for _, c := range []uintptr{2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192} {
		if n <= c {
			return fmt.Sprintf("the %d-byte size class", c)
		}
	}
	return "a size class above 8192 bytes"
}

// dirCount counts the entries each visits.
func dirCount(tab *dirTab) int {
	n := 0
	_ = tab.each(func(Addr, *dirEntry) error {
		n++
		return nil
	})
	return n
}

// The directory agrees with a map from line to entry under seeded random
// requests at two homes. The requests cover each home's first and last line and spread over
// several chunks, and a first pass grows the chunk index one chunk at a
// time while checking every pointer handed out so far.
func TestDirTabMatchesMapReference(t *testing.T) {
	const homes = 2
	lines := uint64(wp / LineWords)
	tabs := make([]dirTab, homes)
	for h := range tabs {
		tabs[h].base = Addr(uint64(h) * wp)
	}
	ref := make(map[Addr]*dirEntry)
	rng := rand.New(rand.NewSource(wp))
	create := func(h int, line Addr) {
		e := tabs[h].getOrCreate(line)
		if want, ok := ref[line]; ok {
			if e != want {
				t.Fatalf("getOrCreate(%#x) moved the entry", uint64(line))
			}
			return
		}
		if e.state != dIdle || e.owner != -1 {
			t.Fatalf("fresh entry for %#x not idle", uint64(line))
		}
		e.pendFrom = int32(line) // mark, so a shared or moved entry shows
		ref[line] = e
	}
	check := func(line Addr, e *dirEntry) {
		if want := ref[line]; e != want || (e != nil && e.pendFrom != int32(line)) {
			t.Fatalf("entry for %#x is %p, want %p", uint64(line), e, want)
		}
	}
	// Grow each home's chunk index one chunk at a time.
	for c := uint64(0); c*dirChunkLines < lines; c++ {
		for h := range tabs {
			off := min(c*dirChunkLines+uint64(rng.Int63n(dirChunkLines)), lines-1)
			create(h, tabs[h].base+Addr(off*LineWords))
			for line := range ref {
				check(line, tabs[uint64(line)/wp].get(line))
			}
		}
	}
	for i := 0; i < 4000; i++ {
		h := rng.Intn(homes)
		var off uint64
		switch rng.Intn(8) {
		case 0: // first line
		case 1:
			off = lines - 1
		default:
			off = uint64(rng.Int63n(int64(lines)))
		}
		line := tabs[h].base + Addr(off*LineWords)
		if rng.Intn(3) == 0 {
			create(h, line)
		} else {
			check(line, tabs[h].get(line))
		}
	}
	// Every line, requested or not, reads as the reference says: a line
	// never requested reads nil even inside an allocated chunk.
	holes := 0
	for h := range tabs {
		for off := uint64(0); off < lines; off++ {
			line := tabs[h].base + Addr(off*LineWords)
			check(line, tabs[h].get(line))
			if ref[line] == nil && tabs[h].chunks[off/dirChunkLines].entries != nil {
				holes++
			}
		}
	}
	if holes == 0 {
		t.Fatalf("wp %d: no never-requested line inside an allocated chunk was checked", wp)
	}
	// each visits every created line once, in ascending address order.
	for h := range tabs {
		var prev Addr
		n := 0
		_ = tabs[h].each(func(line Addr, e *dirEntry) error {
			if n > 0 && line <= prev {
				t.Fatalf("home %d: each visited %#x after %#x", h, uint64(line), uint64(prev))
			}
			check(line, e)
			prev = line
			n++
			return nil
		})
		want := 0
		for line := range ref {
			if uint64(line)/wp == uint64(h) {
				want++
			}
		}
		if n != want {
			t.Fatalf("home %d: each visited %d entries, want %d", h, n, want)
		}
	}
}

func TestTxnRecycleAndGen(t *testing.T) {
	h := newHarness(2)
	ctrl := h.fab.Ctrls[0]
	a := h.fab.Store.AllocOn(1, 4)
	b := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl.Read(c, a)
		rec := ctrl.txnFree
		if rec == nil {
			t.Fatal("retired transaction not on the free list")
		}
		gen := rec.gen
		if gen == 0 {
			t.Fatal("retirement did not bump the record's generation")
		}
		// The next miss must reuse the pooled record, not allocate.
		ctrl.Read(c, b)
		if ctrl.txnFree != rec {
			t.Fatal("second miss did not recycle the pooled record")
		}
		if rec.gen != gen+1 {
			t.Fatalf("recycled record gen %d, want %d", rec.gen, gen+1)
		}
		if len(ctrl.txns) != 0 {
			t.Fatalf("%d transactions outstanding after fills", len(ctrl.txns))
		}
	})
}

func TestTicketStaleAfterRetire(t *testing.T) {
	// A ticket held across the fill's completion (the processor switched to
	// another context and came back late) must not wait on the recycled
	// record's reset gate: the generation check short-circuits it.
	h := newHarness(2)
	ctrl := h.fab.Ctrls[0]
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		tk := ctrl.StartMiss(a, Shared)
		if tk.Hit() {
			t.Fatal("cold StartMiss reported a hit")
		}
		c.Sleep(100000) // fill completes and the record retires meanwhile
		if tk.t.gen == tk.gen {
			t.Fatal("transaction did not retire during the sleep")
		}
		before := c.Now()
		tk.Wait(c) // must return immediately
		if c.Now() != before {
			t.Fatal("stale ticket waited on a recycled gate")
		}
		if ctrl.LineState(a) != Shared {
			t.Fatal("fill did not land")
		}
	})
}

func TestTxnFullTicketStaleness(t *testing.T) {
	// Fill the transaction buffer, take a buffer-full ticket, and hold it
	// until every transaction has retired. Wait must find the free slot
	// without parking, issue the fill and wait for it; the caller's retry
	// then hits, and the miss was counted once, by StartMiss.
	h := newHarness(2)
	ctrl := h.fab.Ctrls[0]
	addrs := make([]Addr, txnLimit+1)
	for i := range addrs {
		addrs[i] = h.fab.Store.AllocOn(1, 4)
	}
	last := addrs[txnLimit]
	h.run(t, func(c *sim.Context) {
		for i := 0; i < txnLimit; i++ {
			ctrl.Prefetch(addrs[i], false)
		}
		tk := ctrl.StartMiss(last, Exclusive)
		if tk.kind != tkFull {
			t.Errorf("StartMiss with %d of %d transactions outstanding returned ticket kind %d, want a buffer-full ticket",
				len(ctrl.txns), txnLimit, tk.kind)
			return
		}
		misses := h.st.Global.Get(stats.CacheMisses)
		c.Sleep(100000) // every prefetch retires meanwhile
		if len(ctrl.txns) != 0 {
			t.Errorf("%d transactions still outstanding after the drain", len(ctrl.txns))
			return
		}
		tk.Wait(c) // parking on the empty buffer would deadlock the run
		if ctrl.LineState(last) != Exclusive {
			t.Error("held buffer-full ticket did not issue its fill")
		}
		if !ctrl.StartMiss(last, Exclusive).Hit() {
			t.Error("retry after the ticket's fill did not hit")
		}
		if got := h.st.Global.Get(stats.CacheMisses); got != misses {
			t.Errorf("misses went from %d to %d after StartMiss counted the access", misses, got)
		}
	})
}

// smallHarness builds a fabric with a tiny direct-mapped cache and few
// hardware pointers so evictions and LimitLESS overflows happen constantly.
func smallHarness(n int) *harness { return cacheHarness(n, 2, 1) }

// cacheHarness builds an n-node fabric with the given cache geometry and
// 2 LimitLESS hardware pointers.
func cacheHarness(n, sets, ways int) *harness {
	eng := sim.NewEngine()
	w, hgt := mesh.Dims(n)
	st := stats.NewMachine(n)
	net := mesh.New(eng, w, hgt, mesh.DefaultParams(), st)
	store := NewStore(n, 1<<12)
	fab := NewFabric(eng, net, store, 2, st, sets, ways)
	return &harness{eng: eng, fab: fab, st: st}
}

func TestPooledEvictionAndOverflow(t *testing.T) {
	// Drive the pooled directory through its slow paths: every node reads a
	// hot line (overflowing the 2 hardware pointers into software), then a
	// writer invalidates the whole overflowed set, and a tiny cache forces
	// dirty evictions and their writebacks through pooled entries.
	const nodes = 4
	h := smallHarness(nodes)
	hot := h.fab.Store.AllocOn(0, 4)
	lines := make([]Addr, 6)
	for i := range lines {
		lines[i] = h.fab.Store.AllocOn(0, 4)
	}
	bodies := make([]func(*sim.Context), nodes)
	for n := 0; n < nodes; n++ {
		node := n
		bodies[node] = func(c *sim.Context) {
			ctrl := h.fab.Ctrls[node]
			ctrl.Read(c, hot)
			c.Sleep(sim.Time(2000 + node)) // let every node join before the write
			if node == nodes-1 {
				_, _, _, overflow := h.fab.Ctrls[0].DirInfo(hot)
				if !overflow {
					t.Error("full-machine sharing did not overflow 2 hardware pointers")
				}
				ctrl.Write(c, hot)
			}
			// Churn a working set larger than the 2-line cache: constant
			// evictions, dirty writebacks, and directory reuse.
			for i := 0; i < 12; i++ {
				a := lines[(i+node)%len(lines)]
				if (i+node)%2 == 0 {
					ctrl.Write(c, a)
				} else {
					ctrl.Read(c, a)
				}
			}
		}
	}
	h.run(t, bodies...)
	if h.st.Global.Get(stats.DirOverflows) == 0 {
		t.Fatal("no directory overflows recorded")
	}
	if h.st.Global.Get(stats.CacheWritebacks) == 0 {
		t.Fatal("no dirty evictions recorded")
	}
	st, sharers, owner, _ := h.fab.Ctrls[0].DirInfo(hot)
	t.Logf("hot line at quiescence: state=%s sharers=%d owner=%d", st, sharers, owner)
}

func TestPooledRecordsWithFaultInjection(t *testing.T) {
	// Protocol mutations must still be caught by the live checker when the
	// directory and transaction records are pooled, and retirement/recycling
	// must keep working while the fault corrupts protocol state.
	cases := []struct {
		name  string
		fault Fault
	}{
		{"drop-inval", Fault{DropInval: true}},
		{"forget-sharer", Fault{ForgetSharer: true}},
		{"wrong-owner", Fault{WrongOwner: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(2)
			h.fab.Fault = &tc.fault
			lc := h.fab.AttachChecker()
			a := h.fab.Store.AllocOn(1, 4)
			b := h.fab.Store.AllocOn(1, 4) // written cold: the idle-entry write path
			done := make(chan struct{}, 2)
			h.eng.Spawn("r", 0, func(c *sim.Context) {
				h.fab.Ctrls[0].Read(c, a)
				c.Sleep(5000)
				h.fab.Ctrls[0].Read(c, a)
				done <- struct{}{}
			})
			h.eng.Spawn("w", 1, func(c *sim.Context) {
				c.Sleep(2000)
				h.fab.Ctrls[1].Write(c, a)
				h.fab.Ctrls[1].Write(c, b)
				done <- struct{}{}
			})
			h.eng.Run()
			if len(lc.Violations()) == 0 {
				t.Fatalf("%s: fault escaped the live checker on pooled records", tc.name)
			}
			// Retirement kept working: no transactions left outstanding.
			for _, c := range h.fab.Ctrls {
				if len(c.txns) != 0 {
					t.Fatalf("%s: node %d left %d transactions outstanding", tc.name, c.node, len(c.txns))
				}
			}
		})
	}
}
