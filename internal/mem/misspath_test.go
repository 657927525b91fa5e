package mem

import (
	"testing"

	"alewife/internal/sim"
	"alewife/internal/stats"
)

// missCounts is one node's miss-path counters at a point in a run.
type missCounts struct{ misses, upgrades, useful int64 }

func countsOf(h *harness, node int) missCounts {
	s := h.st.Node[node]
	return missCounts{s.Get(stats.CacheMisses), s.Get(stats.CacheUpgrades), s.Get(stats.PrefetchUseful)}
}

func (m missCounts) since(prev missCounts) missCounts {
	return missCounts{m.misses - prev.misses, m.upgrades - prev.upgrades, m.useful - prev.useful}
}

// TestMissPathAccounting pins what one access counts and waits for on each
// of the miss path's detours. Every access counts through the one
// startMiss path, so these figures hold for all of them.
func TestMissPathAccounting(t *testing.T) {
	t.Run("prefetch-write-penalty", func(t *testing.T) {
		// A write to a line a shared prefetch filled waits exactly the
		// penalty longer than a plain upgrade, and counts two upgrades: one
		// before the penalty, one when it probes the still-Shared line again.
		h := newHarness(2)
		ctrl := h.fab.Ctrls[0]
		plain := h.fab.Store.AllocOn(1, 4)
		pre := h.fab.Store.AllocOn(1, 4)
		var plainLat, preLat sim.Time
		var plainN, preN missCounts
		h.run(t, func(c *sim.Context) {
			ctrl.Read(c, plain)
			ctrl.Prefetch(pre, false)
			c.Sleep(300) // the prefetch lands: both lines are Shared
			before, s := countsOf(h, 0), c.Now()
			ctrl.Write(c, plain)
			plainLat, plainN = c.Now()-s, countsOf(h, 0).since(before)
			c.Sleep(300)
			before, s = countsOf(h, 0), c.Now()
			ctrl.Write(c, pre)
			preLat, preN = c.Now()-s, countsOf(h, 0).since(before)
		})
		if want := (missCounts{upgrades: 1}); plainN != want {
			t.Errorf("plain upgrade counted %+v, want %+v", plainN, want)
		}
		if want := (missCounts{upgrades: 2}); preN != want {
			t.Errorf("write after a shared prefetch counted %+v, want %+v", preN, want)
		}
		if preLat-plainLat != prefetchWritePenalty {
			t.Errorf("write after a shared prefetch took %d cycles, a plain upgrade %d: want a difference of %d",
				preLat, plainLat, prefetchWritePenalty)
		}
	})

	t.Run("upgrade-through-full-buffer", func(t *testing.T) {
		// Node 0 writes a line it holds Shared while its transaction buffer
		// is full of prefetches to the far corner. Node 1's write takes the
		// copy during the wait, so node 0's request, once a slot frees, is
		// a full miss at the home; the access still counts one upgrade and
		// no miss, because it is counted once, when it first probes.
		h := newHarness(64)
		ctrl := h.fab.Ctrls[0]
		x := h.fab.Store.AllocOn(1, 4)
		far := make([]Addr, txnLimit)
		for i := range far {
			far[i] = h.fab.Store.AllocOn(63, 4)
		}
		var n missCounts
		var start, end, taken sim.Time
		h.run(t,
			func(c *sim.Context) {
				ctrl.Read(c, x)
				c.WaitUntil(100)
				for _, a := range far {
					ctrl.Prefetch(a, false)
				}
				if len(ctrl.txns) != txnLimit || ctrl.LineState(x) != Shared {
					t.Errorf("before the write: %d transactions, line %v; want a full buffer and Shared",
						len(ctrl.txns), ctrl.LineState(x))
					return
				}
				before := countsOf(h, 0)
				start = c.Now()
				ctrl.Write(c, x)
				end, n = c.Now(), countsOf(h, 0).since(before)
			},
			func(c *sim.Context) {
				c.WaitUntil(105)
				h.fab.Ctrls[1].Write(c, x)
				taken = c.Now()
				if ctrl.LineState(x) != Invalid || ctrl.findTxn(x) != nil || len(ctrl.txns) != txnLimit {
					t.Errorf("when node 1 took the line, node 0 held it %v with %d transactions: want it invalidated while node 0 waited on a full buffer",
						ctrl.LineState(x), len(ctrl.txns))
				}
			})
		if !(start < taken && taken < end) {
			t.Fatalf("node 1 took the line at %d, outside node 0's write [%d, %d]", taken, start, end)
		}
		if want := (missCounts{upgrades: 1}); n != want {
			t.Errorf("upgrade through a full buffer counted %+v, want %+v", n, want)
		}
		if ctrl.LineState(x) != Exclusive {
			t.Errorf("node 0 ends with the line %v, want Exclusive", ctrl.LineState(x))
		}
	})

	t.Run("sibling-contexts-through-full-buffer", func(t *testing.T) {
		// Two contexts of node 0 write one line through a full buffer,
		// each waiting on its ticket. The first slot to free goes to
		// context A, whose fill of the (local) line lands before the far
		// prefetches retire; that retirement frees context B's slot, and
		// B's probe must find the line A filled. Requesting it again would
		// park B forever: the home defers a request from the line's owner
		// until a writeback that never comes.
		h := newHarness(64)
		ctrl := h.fab.Ctrls[0]
		x := h.fab.Store.AllocOn(0, 4)
		pre := []Addr{h.fab.Store.AllocOn(0, 4)}
		for len(pre) < txnLimit {
			pre = append(pre, h.fab.Store.AllocOn(63, 4))
		}
		done := 0
		write := func(c *sim.Context) {
			tk := ctrl.startMiss(x, Exclusive)
			if tk.kind != tkFull {
				t.Errorf("first probe returned ticket kind %d, want a buffer-full ticket", tk.kind)
			}
			for ; !tk.Hit(); tk = ctrl.startMiss(x, Exclusive) {
				tk.Wait(c)
			}
			done++
		}
		h.run(t,
			func(c *sim.Context) {
				for _, a := range pre {
					ctrl.Prefetch(a, false)
				}
				write(c)
			},
			write)
		if done != 2 {
			t.Fatalf("%d of 2 contexts finished", done)
		}
		if want := (missCounts{misses: 2}); countsOf(h, 0) != want {
			t.Errorf("two writes counted %+v, want %+v", countsOf(h, 0), want)
		}
		if ctrl.LineState(x) != Exclusive {
			t.Errorf("line ends %v, want Exclusive", ctrl.LineState(x))
		}
	})
}
