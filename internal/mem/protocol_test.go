package mem

import (
	"testing"
	"testing/quick"

	"alewife/internal/sim"
	"alewife/internal/stats"
)

// Additional protocol tests: crafted races and transition coverage beyond
// the basics in ctrl_test.go.

func TestWritebackRacesRecall(t *testing.T) {
	// Node 1 takes a line Exclusive, then evicts it (WB in flight) at the
	// same time node 2 requests it: the home's recall finds nothing at
	// node 1 and the WB must complete the pending request.
	h := newHarness(4)
	// Cache geometry in the harness: 64 sets x 2 ways; conflict lines
	// differ by 64*LineWords.
	base := h.fab.Store.AllocOn(0, 4096)
	hot := base
	c1 := base + 64*LineWords
	c2 := base + 2*64*LineWords
	h.run(t,
		func(c *sim.Context) {
			ctrl := h.fab.Ctrls[1]
			ctrl.Write(c, hot) // Exclusive at node 1
			ctrl.Write(c, c1)
			ctrl.Write(c, c2) // evicts hot -> WB in flight
		},
		func(c *sim.Context) {
			c.Sleep(95) // land while the WB may still be flying
			h.fab.Ctrls[2].Read(c, hot)
		},
	)
	if st := h.fab.Ctrls[2].LineState(hot); st != Shared {
		t.Fatalf("requester state = %v, want S", st)
	}
}

func TestBurstReadersThenWriterThenReaders(t *testing.T) {
	// Full lifecycle: wide sharing -> exclusive write -> re-sharing, with
	// directory state checked at each phase.
	const n = 8
	h := newHarness(n)
	a := h.fab.Store.AllocOn(0, 4)
	bodies := []func(*sim.Context){}
	for i := 0; i < n; i++ {
		i := i
		bodies = append(bodies, func(c *sim.Context) {
			h.fab.Ctrls[i].Read(c, a) // phase 1: everyone reads
			c.Sleep(2000)
			if i == 3 {
				h.fab.Ctrls[3].Write(c, a) // phase 2: one writes
			}
			c.Sleep(2000)
			h.fab.Ctrls[i].Read(c, a) // phase 3: everyone re-reads
		})
	}
	h.run(t, bodies...)
	ds, nsh, _, _ := h.fab.Ctrls[0].DirInfo(a)
	if ds != "shared" || nsh < n-1 {
		t.Fatalf("final dir = %s/%d, want shared with most nodes", ds, nsh)
	}
	if h.fab.Store.Read(a) != 0 {
		// the write wrote nothing in particular; just confirm no panic path
		t.Log("value after lifecycle:", h.fab.Store.Read(a))
	}
}

func TestUpgradeLosesRaceToRemoteWriter(t *testing.T) {
	// Two shared holders try to upgrade the same line simultaneously; both
	// must end up having held it exclusively at some point, serialized by
	// the home, with no deadlock.
	h := newHarness(4)
	a := h.fab.Store.AllocOn(3, 4)
	won := 0
	body := func(node int) func(*sim.Context) {
		return func(c *sim.Context) {
			ctrl := h.fab.Ctrls[node]
			ctrl.Read(c, a)
			c.Sleep(500)
			ctrl.Write(c, a)
			won++
		}
	}
	h.run(t, body(0), body(1))
	if won != 2 {
		t.Fatalf("only %d upgrades completed", won)
	}
}

func TestFalseSharingPingPong(t *testing.T) {
	// Two nodes write different words of the same line: the line must
	// ping-pong (many protocol messages), while writes to separate lines
	// stay quiet after warmup.
	traffic := func(sameLine bool) int64 {
		h := newHarness(2)
		base := h.fab.Store.AllocOn(0, 8)
		a0 := base
		a1 := base + 1
		if !sameLine {
			a1 = base + LineWords
		}
		h.run(t, func(c *sim.Context) {
			for k := 0; k < 20; k++ {
				h.fab.Ctrls[0].Write(c, a0)
				c.Sleep(50)
			}
		}, func(c *sim.Context) {
			for k := 0; k < 20; k++ {
				h.fab.Ctrls[1].Write(c, a1)
				c.Sleep(50)
			}
		})
		return h.st.Global.Get(stats.ProtoMsgs)
	}
	same := traffic(true)
	diff := traffic(false)
	t.Logf("protocol messages: false sharing=%d, separate lines=%d", same, diff)
	if same < diff*3 {
		t.Fatalf("false sharing not visible: %d vs %d messages", same, diff)
	}
}

func TestReadDuringPendingInvalidation(t *testing.T) {
	// A read arriving while the home is collecting invalidation acks must
	// be deferred and served afterwards.
	const n = 6
	h := newHarness(n)
	a := h.fab.Store.AllocOn(0, 4)
	bodies := []func(*sim.Context){}
	for i := 0; i < 4; i++ {
		i := i
		bodies = append(bodies, func(c *sim.Context) {
			h.fab.Ctrls[i].Read(c, a)
		})
	}
	bodies = append(bodies, func(c *sim.Context) {
		c.Sleep(1000)
		h.fab.Ctrls[4].Write(c, a) // triggers invalidation round
	})
	bodies = append(bodies, func(c *sim.Context) {
		c.Sleep(1005) // lands mid-invalidation
		h.fab.Ctrls[5].Read(c, a)
	})
	h.run(t, bodies...)
	if st := h.fab.Ctrls[5].LineState(a); st != Shared {
		t.Fatalf("deferred reader state = %v, want S", st)
	}
}

func TestTxnBufferStallsDemandMisses(t *testing.T) {
	// Five simultaneous demand misses from one node with txnLimit=4: the
	// fifth stalls until a buffer slot frees, but all five complete.
	h := newHarness(2)
	base := h.fab.Store.AllocOn(1, 64)
	done := 0
	for k := 0; k < 5; k++ {
		k := k
		h.eng.Spawn("m", sim.Time(k), func(c *sim.Context) {
			h.fab.Ctrls[0].Read(c, base+Addr(k*LineWords))
			done++
		})
	}
	h.eng.Run()
	if done != 5 {
		t.Fatalf("%d/5 stalled misses completed", done)
	}
	if err := h.fab.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusivePrefetchThenWriteIsFree(t *testing.T) {
	// An exclusive prefetch that lands makes the subsequent write a pure
	// cache hit with no penalty (unlike a shared prefetch).
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	var writeLat sim.Time
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[0].Prefetch(a, true)
		c.Sleep(300)
		s := c.Now()
		h.fab.Ctrls[0].Write(c, a)
		writeLat = c.Now() - s
	})
	if writeLat != 0 {
		t.Fatalf("write after exclusive prefetch took %d cycles", writeLat)
	}
}

func TestSharedPrefetchThenWritePaysPenalty(t *testing.T) {
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	var writeLat sim.Time
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[0].Prefetch(a, false)
		c.Sleep(300)
		s := c.Now()
		h.fab.Ctrls[0].Write(c, a)
		writeLat = c.Now() - s
	})
	if writeLat < prefetchWritePenalty {
		t.Fatalf("write after shared prefetch took %d cycles, want >= penalty %d",
			writeLat, prefetchWritePenalty)
	}
}

func TestDemandReadClearsPrefetchFlag(t *testing.T) {
	// A line filled by demand read (not prefetch) must not pay the
	// prefetch-write penalty on upgrade.
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	var upLat sim.Time
	h.run(t, func(c *sim.Context) {
		h.fab.Ctrls[0].Read(c, a)
		s := c.Now()
		h.fab.Ctrls[0].Write(c, a)
		upLat = c.Now() - s
	})
	// A plain upgrade round-trip; must be well under trip+penalty.
	if upLat > 60 {
		t.Fatalf("plain upgrade took %d cycles — penalty misapplied?", upLat)
	}
}

// Property: after any pattern of single-node reads/writes with no other
// node touching the addresses, every read sees the last written value and
// the quiescent state is consistent.
func TestPropertySingleNodeSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		h := newHarness(2)
		base := h.fab.Store.AllocOn(1, 64) // remote home exercises the protocol
		model := map[Addr]uint64{}
		ok := true
		h.eng.Spawn("p", 0, func(c *sim.Context) {
			ctrl := h.fab.Ctrls[0]
			for i, op := range ops {
				a := base + Addr(op%64)
				if op%3 == 0 {
					ctrl.AcquireExclusive(c, a)
					h.fab.Store.Write(a, uint64(i)+1)
					model[a] = uint64(i) + 1
				} else {
					ctrl.Read(c, a)
					if got := h.fab.Store.Read(a); got != model[a] {
						ok = false
					}
				}
			}
		})
		h.eng.Run()
		return ok && h.fab.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOverflowedEntryTrapsEveryRequest(t *testing.T) {
	// Once a line's directory entry overflows, LimitLESS handles every
	// request on it in software: reads of an overflowed line must be
	// slower than reads of a freshly shared one.
	const n = 9 // 5 hardware pointers, so 8 readers overflow
	h := newHarness(n)
	hot := h.fab.Store.AllocOn(0, 4)
	cold := h.fab.Store.AllocOn(0, 4)
	for i := 1; i < n; i++ {
		i := i
		h.eng.Spawn("r", sim.Time(i)*300, func(c *sim.Context) {
			h.fab.Ctrls[i].Read(c, hot)
		})
	}
	h.eng.Run()
	_, _, _, overflow := h.fab.Ctrls[0].DirInfo(hot)
	if !overflow {
		t.Fatal("hot line did not overflow")
	}
	// Compare a fresh remote read of the overflowed line vs a clean line
	// from a node that has neither cached.
	var hotLat, coldLat sim.Time
	h.eng.Spawn("probe", h.eng.Now(), func(c *sim.Context) {
		ctrl := h.fab.Ctrls[1]
		ctrl.Cache().InvalidateAll() // drop Shared copies only (no dirty lines held)
		s := c.Now()
		ctrl.Read(c, hot)
		hotLat = c.Now() - s
		s = c.Now()
		ctrl.Read(c, cold)
		coldLat = c.Now() - s
	})
	h.eng.Run()
	t.Logf("overflowed read %d cycles, clean read %d cycles", hotLat, coldLat)
	if hotLat <= coldLat {
		t.Fatalf("overflowed entry (%d) not slower than clean (%d)", hotLat, coldLat)
	}
}

func TestOverflowResetAfterInvalidation(t *testing.T) {
	// A write collapses the sharer set; the entry leaves software mode.
	const n = 9
	h := newHarness(n)
	a := h.fab.Store.AllocOn(0, 4)
	for i := 1; i < n; i++ {
		i := i
		h.eng.Spawn("r", sim.Time(i)*300, func(c *sim.Context) {
			h.fab.Ctrls[i].Read(c, a)
		})
	}
	h.eng.Spawn("w", 5000, func(c *sim.Context) {
		h.fab.Ctrls[1].Write(c, a)
	})
	h.eng.Run()
	ds, _, owner, overflow := h.fab.Ctrls[0].DirInfo(a)
	if overflow {
		t.Fatal("entry still overflowed after invalidation round")
	}
	if ds != "excl" || owner != 1 {
		t.Fatalf("dir = %s owner %d", ds, owner)
	}
	if err := h.fab.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
