package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestLadderWindowWrap schedules events across several near-window laps so
// the bucket ring wraps; order must stay strictly (at, seq).
func TestLadderWindowWrap(t *testing.T) {
	e := NewEngine()
	var got []Time
	var chain func()
	hops := 0
	chain = func() {
		got = append(got, e.Now())
		hops++
		if hops < 10 {
			e.After(ladderWindow-1, chain)
		}
	}
	e.After(1, chain)
	e.Run()
	if len(got) != 10 {
		t.Fatalf("ran %d hops, want 10", len(got))
	}
	for i, at := range got {
		want := Time(1 + i*(ladderWindow-1))
		if at != want {
			t.Fatalf("hop %d at %d, want %d", i, at, want)
		}
	}
}

// TestLadderOverflowMigration mixes far-future timers with near events at
// the same eventual timestamps: the overflow record was scheduled first, so
// it must fire first when the times collide.
func TestLadderOverflowMigration(t *testing.T) {
	e := NewEngine()
	var order []int
	const far = ladderWindow * 3
	e.At(far, func() { order = append(order, 0) }) // overflow tier
	e.At(far-ladderWindow+10, func() {
		// The cursor is now close enough that `far` is inside the near
		// window, but the lower-seq record is still parked in overflow.
		// This push must drain it into the bucket first (eager migration)
		// so the two fire in seq order.
		e.At(far, func() { order = append(order, 1) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("overflow/near same-time order = %v, want [0 1]", order)
	}
	if e.Now() != far {
		t.Fatalf("clock = %d, want %d", e.Now(), far)
	}
}

// TestLadderEmptyJump verifies the cursor jumps across a long dead zone to a
// lone far-future event instead of scanning it bucket by bucket.
func TestLadderEmptyJump(t *testing.T) {
	e := NewEngine()
	fired := Time(0)
	e.At(10*ladderWindow+7, func() { fired = e.Now() })
	e.Run()
	if fired != 10*ladderWindow+7 {
		t.Fatalf("fired at %d", fired)
	}
}

// TestLadderReferenceModel drives the queue with a seeded adversarial
// schedule — bursts of same-time events, near and far delays, nested
// scheduling from callbacks — and checks the firing order against a sorted
// (at, seq) reference.
func TestLadderReferenceModel(t *testing.T) {
	type rec struct {
		at  Time
		seq int
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var want, got []rec
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				var d uint64
				switch rng.Intn(4) {
				case 0:
					d = 0 // same-cycle burst
				case 1:
					d = uint64(rng.Intn(16))
				case 2:
					d = uint64(rng.Intn(ladderWindow))
				default:
					d = uint64(rng.Intn(4 * ladderWindow)) // overflow tier
				}
				at := e.Now() + d
				id := seq
				seq++
				want = append(want, rec{at, id})
				e.At(at, func() {
					got = append(got, rec{e.Now(), id})
					if depth < 2 && rng.Intn(3) == 0 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		e.Run()
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d fired as %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestLadderPoolReuse checks records recycle: a long run must keep the pool
// bounded rather than growing with event count.
func TestLadderPoolReuse(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			e.After(3, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	free := 0
	for r := e.q.free; r != nil; r = r.next {
		free++
	}
	if free == 0 || free > 128 {
		t.Fatalf("free list has %d records after run; want a small warm pool", free)
	}
}

// TestLadderPeek fills the ladder across both tiers and drains it: at every
// step the head of the bucket candidates offers is the record next pops,
// candidates dequeues nothing, and every candidate shares the cursor's
// timestamp in seq order.
func TestLadderPeek(t *testing.T) {
	l := newLadder()
	if len(l.candidates(nil)) != 0 || l.next() != nil {
		t.Fatal("empty ladder offered a record")
	}
	mk := func(at Time, seq uint64) *event {
		r := l.get()
		r.at, r.seq = at, seq
		l.push(r)
		return r
	}
	mk(ladderWindow*2, 1) // overflow tier, lowest seq
	near := mk(5, 2)
	mk(9, 3)
	mk(9, 4)
	mk(ladderWindow*5, 5)
	mk(ladderWindow*5+1, 6)
	mk(ladderWindow*5, 7)
	var buf []*event
	for step := 0; l.size > 0; step++ {
		size := l.size
		buf = l.candidates(buf[:0])
		if len(buf) == 0 || l.size != size {
			t.Fatalf("step %d: candidates offered %d records and left size %d, want some and %d", step, len(buf), l.size, size)
		}
		for i, r := range buf {
			if r.at != l.base || (i > 0 && r.seq <= buf[i-1].seq) {
				t.Fatalf("step %d: candidate %d is (at %d, seq %d) at cursor %d, want one cycle in seq order", step, i, r.at, r.seq, l.base)
			}
		}
		head := buf[0]
		if step == 0 && head != near {
			t.Fatalf("first head is (at %d, seq %d), want the near minimum (5, 2)", head.at, head.seq)
		}
		got := l.next()
		if got != head {
			t.Fatalf("step %d: candidates head (at %d, seq %d) != next (at %d, seq %d)", step, head.at, head.seq, got.at, got.seq)
		}
		l.put(got)
	}
	if len(l.candidates(buf[:0])) != 0 || l.next() != nil {
		t.Fatal("drained ladder offered a record")
	}
}

// TestLadderPeekOverflowOnly holds only far-future records: candidates must
// jump the cursor to the overflow minimum and offer its records in seq
// order, and next must pop them; the drain passes one such state per
// distinct far time.
func TestLadderPeekOverflowOnly(t *testing.T) {
	l := newLadder()
	mk := func(at Time, seq uint64) *event {
		r := l.get()
		r.at, r.seq = at, seq
		l.push(r)
		return r
	}
	a := mk(ladderWindow*5, 1)
	c := mk(ladderWindow*9, 2)
	b := mk(ladderWindow*5, 3)
	var buf []*event
	for _, want := range [][]*event{{a, b}, {c}} {
		if l.near != 0 {
			t.Fatalf("%d records in the near tier, want only overflow", l.near)
		}
		buf = l.candidates(buf[:0])
		if l.base != want[0].at {
			t.Fatalf("cursor at %d, want the overflow minimum %d", l.base, want[0].at)
		}
		if len(buf) != len(want) {
			t.Fatalf("candidates offered %d records at %d, want %d", len(buf), l.base, len(want))
		}
		for i, w := range want {
			if buf[i] != w {
				t.Fatalf("candidate %d is (at %d, seq %d), want (at %d, seq %d)", i, buf[i].at, buf[i].seq, w.at, w.seq)
			}
			if got := l.next(); got != w {
				t.Fatalf("next popped (at %d, seq %d), want (at %d, seq %d)", got.at, got.seq, w.at, w.seq)
			}
		}
		for _, w := range want {
			l.put(w)
		}
	}
	if l.size != 0 {
		t.Fatalf("size %d after the drain", l.size)
	}
}
