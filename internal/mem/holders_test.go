package mem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"alewife/internal/sim"
)

// scanHolders is what the holder index replaces: every cache's state for
// every line it holds, by a full walk of the tag arrays.
func scanHolders(f *Fabric) map[Addr][]LState {
	out := make(map[Addr][]LState)
	for _, c := range f.Ctrls {
		c.cache.each(func(l *cline) error {
			if out[l.tag] == nil {
				out[l.tag] = make([]LState, len(f.Ctrls))
			}
			out[l.tag][c.node] = l.state
			return nil
		})
	}
	return out
}

// indexMismatch compares the holder index with a full scan in both
// directions: every held line's bits, and every set bit's line. It returns
// the first difference, or "".
func indexMismatch(f *Fabric, ix *holderIndex) string {
	scan := scanHolders(f)
	for line, states := range scan {
		_, valid, excl := ix.holders(line)
		for n, want := range states {
			got := Invalid
			if valid != nil && valid[n>>6]&(1<<(n&63)) != 0 {
				got = Shared
				if excl[n>>6]&(1<<(n&63)) != 0 {
					got = Exclusive
				}
			} else if excl != nil && excl[n>>6]&(1<<(n&63)) != 0 {
				return fmt.Sprintf("line %#x node %d: exclusive bit without valid bit", uint64(line), n)
			}
			if got != want {
				return fmt.Sprintf("line %#x node %d: index says %v, caches say %v", uint64(line), n, got, want)
			}
		}
	}
	for home, b := range ix.homes {
		for i := 0; i < len(b); i += 2 * ix.words {
			line := Addr(uint64(home)*f.Store.WordsPerNode() + uint64(i/(2*ix.words))*LineWords)
			for w := 0; w < 2*ix.words; w++ {
				for v := b[i+w]; v != 0; v &= v - 1 {
					n := (w%ix.words)<<6 | bits.TrailingZeros64(v)
					if states := scan[line]; states == nil || states[n] == Invalid {
						return fmt.Sprintf("line %#x node %d: stale index bit, no cache holds it", uint64(line), n)
					}
				}
			}
		}
	}
	return ""
}

// randomTraffic spawns one context per node issuing ops random reads,
// writes, prefetches, atomics and DMA invalidations over addrs.
func randomTraffic(h *harness, addrs []Addr, ops int, seed int64) {
	for i := range h.fab.Ctrls {
		node := i
		r := rand.New(rand.NewSource(seed + int64(node)))
		h.eng.Spawn("traffic", sim.Time(node), func(c *sim.Context) {
			ctrl := h.fab.Ctrls[node]
			for k := 0; k < ops; k++ {
				a := addrs[r.Intn(len(addrs))]
				switch r.Intn(6) {
				case 0, 1:
					ctrl.Read(c, a)
				case 2:
					ctrl.Write(c, a)
				case 3:
					ctrl.Prefetch(a, r.Intn(2) == 0)
				case 4:
					ctrl.AcquireExclusive(c, a)
				case 5:
					ctrl.DMAInvalidate(a, LineWords)
				}
				c.Sleep(uint64(r.Intn(9) + 1))
			}
		})
	}
}

// stepChecked drives the engine one event at a time and compares the index
// with a scan after every event. A protocol panic (a mutation tripping a
// sanity check) ends the run; the index must still agree at that point.
func stepChecked(t *testing.T, h *harness, lc *LiveChecker) (events int) {
	t.Helper()
	for {
		drained, panicked := func() (drained, panicked bool) {
			defer func() {
				if r := recover(); r != nil {
					panicked = true
				}
			}()
			return h.eng.RunLimit(1), false
		}()
		events++
		if msg := indexMismatch(h.fab, lc.hold); msg != "" {
			t.Fatalf("after event %d (cycle %d): %s", events, h.eng.Now(), msg)
		}
		if drained || panicked {
			return events
		}
	}
}

// hotLines allocates n lines round-robin across every home, so high-numbered
// homes (and, past 64 nodes, the second bitset word) are exercised.
func hotLines(f *Fabric, n int) []Addr {
	addrs := make([]Addr, n)
	for i := range addrs {
		addrs[i] = f.Store.AllocOn(i%len(f.Ctrls), LineWords)
	}
	return addrs
}

func TestHolderIndexMatchesScan(t *testing.T) {
	faults := []struct {
		name  string
		fault *Fault
	}{
		{"none", nil},
		{"drop-inval", &Fault{DropInval: true}},
		{"forget-sharer", &Fault{ForgetSharer: true}},
		{"wrong-owner", &Fault{WrongOwner: true}},
		{"skip-inval", &Fault{SkipInval: true}},
		{"wb-to-shared", &Fault{WBToShared: true}},
		{"drop-writeback", &Fault{DropWriteback: true}},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			h := cacheHarness(8, 4, 2)
			h.fab.Fault = tc.fault
			lc := h.fab.AttachChecker()
			randomTraffic(h, hotLines(h.fab, 24), 150, 7)
			events := stepChecked(t, h, lc)
			if tc.fault == nil && len(lc.Violations()) != 0 {
				t.Fatalf("clean run reported %v", lc.Violations()[0])
			}
			t.Logf("%d events, %d violations", events, len(lc.Violations()))
		})
	}
}

// Past 64 nodes each bitset spans two words; holders on nodes 64 and up
// live in the second.
func TestHolderIndexMultiWord(t *testing.T) {
	h := cacheHarness(72, 4, 2)
	lc := h.fab.AttachChecker()
	if lc.hold.words != 2 {
		t.Fatalf("72 nodes: %d words per bitset, want 2", lc.hold.words)
	}
	addrs := hotLines(h.fab, 144)
	randomTraffic(h, addrs, 20, 3)
	stepChecked(t, h, lc)
	high := 0
	for _, b := range lc.hold.homes {
		for i := 0; i < len(b); i += 2 * lc.hold.words {
			if b[i+1] != 0 { // the second valid word: nodes 64..127
				high++
			}
		}
	}
	if high == 0 {
		t.Fatal("no line held by a node >= 64 at the end: second word never exercised")
	}
	if len(lc.Violations()) != 0 {
		t.Fatalf("clean run reported %v", lc.Violations()[0])
	}
}

// A checker attached after the caches already hold lines seeds the index
// from the tag arrays, and InvalidateAll clears every bit it set.
func TestHolderIndexLateAttach(t *testing.T) {
	h := cacheHarness(8, 4, 2)
	addrs := hotLines(h.fab, 24)
	randomTraffic(h, addrs, 150, 11)
	if h.eng.RunLimit(1000) {
		t.Fatal("warm-up drained the traffic before the checker attached")
	}
	if len(scanHolders(h.fab)) == 0 {
		t.Fatal("no lines cached before attach")
	}
	lc := h.fab.AttachChecker()
	if msg := indexMismatch(h.fab, lc.hold); msg != "" {
		t.Fatalf("right after attach: %s", msg)
	}
	stepChecked(t, h, lc)
	for _, c := range h.fab.Ctrls {
		c.Cache().InvalidateAll()
	}
	if msg := indexMismatch(h.fab, lc.hold); msg != "" {
		t.Fatalf("after InvalidateAll: %s", msg)
	}
}

// The mutators that keep the index stay allocation-free once the index has
// grown to cover the lines in use.
func TestHolderIndexAllocFree(t *testing.T) {
	h := newHarness(4)
	h.fab.AttachChecker()
	c := h.fab.Ctrls[1].Cache()
	// Three lines of one set in a 2-way cache: the third insert evicts.
	base := h.fab.Store.AllocOn(2, 3*64*LineWords)
	a, b, d := base, base+64*LineWords, base+2*64*LineWords
	step := func() {
		c.Insert(a, Shared)
		c.SetState(a, Exclusive)
		c.Insert(b, Exclusive)
		c.Insert(d, Shared) // evicts a
		c.SetState(b, Invalid)
		c.SetState(d, Invalid)
	}
	step() // grow the index once
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("Insert/SetState with an attached index: %v allocs per run, want 0", n)
	}
}
