package mesh

import (
	"testing"
	"testing/quick"

	"alewife/internal/sim"
	"alewife/internal/stats"
)

// sinkFunc adapts a closure to sim.Sink: the tests' delivery callback.
type sinkFunc func()

func (f sinkFunc) Fire(uint32, uint64, uint64) { f() }

// send pushes one packet whose arrival runs f.
func send(n Network, src, dst, bytes int, at sim.Time, f func()) {
	n.SendMsg(src, dst, bytes, at, sinkFunc(f), 0, 0, 0)
}

func testMesh(w, h int) (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	return eng, New(eng, w, h, DefaultParams(), stats.NewMachine(w*h))
}

func TestDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2},
		{16, 4, 4}, {64, 8, 8}, {12, 4, 3}, {7, 7, 1}, {100, 10, 10},
	}
	for _, c := range cases {
		w, h := Dims(c.n)
		if w != c.w || h != c.h {
			t.Errorf("Dims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
		if w*h != c.n {
			t.Errorf("Dims(%d): %d*%d != n", c.n, w, h)
		}
	}
}

func TestDist(t *testing.T) {
	_, m := testMesh(4, 4)
	cases := []struct{ a, b, d int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 15, 6}, {5, 10, 2},
	}
	for _, c := range cases {
		if got := m.Dist(c.a, c.b); got != c.d {
			t.Errorf("Dist(%d,%d) = %d, want %d", c.a, c.b, got, c.d)
		}
		if got := m.Dist(c.b, c.a); got != c.d {
			t.Errorf("Dist(%d,%d) asymmetric", c.b, c.a)
		}
	}
}

func deliverTime(t *testing.T, w, h, src, dst, bytes int) sim.Time {
	t.Helper()
	eng, m := testMesh(w, h)
	var at sim.Time
	done := false
	send(m, src, dst, bytes, 0, func() { at = eng.Now(); done = true })
	eng.Run()
	if !done {
		t.Fatalf("packet %d->%d never delivered", src, dst)
	}
	return at
}

// On a fresh mesh a packet's delivery time is the unloaded cost of its
// route: injection, one router delay per hop of Dist, serialization and
// ejection. Every pair of a 6×4 and an 8×1 mesh walks route's X and Y legs
// in all four directions, alone and one after the other.
func TestRouteMatchesDist(t *testing.T) {
	const bytes = 16
	for _, dims := range [][2]int{{6, 4}, {8, 1}} {
		w, h := dims[0], dims[1]
		_, m := testMesh(w, h)
		for src := 0; src < w*h; src++ {
			for dst := 0; dst < w*h; dst++ {
				want := sim.Time(InjectDelay + uint64(m.Dist(src, dst))*DefaultParams().RouterDelay +
					flits(bytes)*FlitCycles + EjectDelay)
				if got := deliverTime(t, w, h, src, dst, bytes); got != want {
					t.Errorf("%dx%d mesh: %d->%d delivered at %d, want %d (Dist %d)",
						w, h, src, dst, got, want, m.Dist(src, dst))
				}
			}
		}
	}
}

func TestLatencyScalesWithDistance(t *testing.T) {
	near := deliverTime(t, 8, 8, 0, 1, 16)
	far := deliverTime(t, 8, 8, 0, 63, 16)
	if far <= near {
		t.Fatalf("far latency %d <= near latency %d", far, near)
	}
	// 0->63 is 14 hops vs 1 hop: expect ~13 extra router delays.
	if far-near != 13*DefaultParams().RouterDelay {
		t.Fatalf("distance delta = %d cycles, want %d", far-near, 13*DefaultParams().RouterDelay)
	}
}

func TestLatencyScalesWithSize(t *testing.T) {
	small := deliverTime(t, 4, 4, 0, 5, 8)
	big := deliverTime(t, 4, 4, 0, 5, 256)
	wantDelta := uint64(256/FlitBytes-8/FlitBytes) * FlitCycles
	if big-small != wantDelta {
		t.Fatalf("size delta = %d, want %d", big-small, wantDelta)
	}
}

func TestLoopback(t *testing.T) {
	at := deliverTime(t, 4, 4, 3, 3, 16)
	want := uint64(InjectDelay + EjectDelay + 16/FlitBytes*FlitCycles)
	if at != want {
		t.Fatalf("loopback latency %d, want %d", at, want)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Two same-size packets from node 0 to node 1 at the same instant must
	// not arrive at the same time: the 0->1 link serializes them.
	eng, m := testMesh(2, 1)
	var times []sim.Time
	send(m, 0, 1, 64, 0, func() { times = append(times, eng.Now()) })
	send(m, 0, 1, 64, 0, func() { times = append(times, eng.Now()) })
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries: %d", len(times))
	}
	if times[0] == times[1] {
		t.Fatalf("contending packets arrived together at %d", times[0])
	}
	// Second head waits for the link, then re-pays the router delay.
	wantGap := 64/FlitBytes*FlitCycles + DefaultParams().RouterDelay
	if times[1]-times[0] != wantGap {
		t.Fatalf("serialization gap %d, want %d", times[1]-times[0], wantGap)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	// 0->1 and 2->3 on a 4x1 mesh use different links: identical latency.
	eng, m := testMesh(4, 1)
	var t01, t23 sim.Time
	send(m, 0, 1, 64, 0, func() { t01 = eng.Now() })
	send(m, 2, 3, 64, 0, func() { t23 = eng.Now() })
	eng.Run()
	if t01 != t23 {
		t.Fatalf("disjoint paths contended: %d vs %d", t01, t23)
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	eng, m := testMesh(2, 1)
	var a, b sim.Time
	send(m, 0, 1, 64, 0, func() { a = eng.Now() })
	send(m, 1, 0, 64, 0, func() { b = eng.Now() })
	eng.Run()
	if a != b {
		t.Fatalf("east and west links contended: %d vs %d", a, b)
	}
}

func TestSendInPastClamped(t *testing.T) {
	eng, m := testMesh(2, 1)
	fired := sim.Time(0)
	eng.At(100, func() {
		send(m, 0, 1, 8, 5, func() { fired = eng.Now() }) // departure in the past
	})
	eng.Run()
	if fired <= 100 {
		t.Fatalf("packet delivered at %d, before its send at 100", fired)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	eng, m := testMesh(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range destination")
		}
	}()
	send(m, 0, 99, 8, 0, func() {})
	eng.Run()
}

func TestIdealNetwork(t *testing.T) {
	eng := sim.NewEngine()
	n := &Ideal{Eng: eng, N: 4}
	var at sim.Time
	send(n, 0, 3, 5, 0, func() { at = eng.Now() })
	eng.Run()
	// idealLatency plus 5 bytes at FlitBytes per cycle, rounded up.
	if want := sim.Time(idealLatency + (5+FlitBytes-1)/FlitBytes); at != want {
		t.Fatalf("ideal latency %d, want %d", at, want)
	}
	if n.Dist(1, 1) != 0 || n.Dist(0, 2) != 1 {
		t.Fatal("ideal Dist wrong")
	}
}

// Property: latency is monotone in both hop distance and packet size, and
// delivery never precedes departure.
func TestPropertyLatencyMonotone(t *testing.T) {
	f := func(srcRaw, dstRaw uint8, sizeRaw uint16) bool {
		src := int(srcRaw) % 16
		dst := int(dstRaw) % 16
		size := int(sizeRaw)%512 + 1
		eng := sim.NewEngine()
		m := New(eng, 4, 4, DefaultParams(), nil)
		var small, big sim.Time
		send(m, src, dst, size, 0, func() { small = eng.Now() })
		eng.Run()
		eng2 := sim.NewEngine()
		m2 := New(eng2, 4, 4, DefaultParams(), nil)
		send(m2, src, dst, size+64, 0, func() { big = eng2.Now() })
		eng2.Run()
		return small > 0 && big > small
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total flits counted equals ceil(bytes/flitBytes) per packet.
func TestPropertyFlitAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		eng := sim.NewEngine()
		st := stats.NewMachine(4)
		m := New(eng, 2, 2, DefaultParams(), st)
		var want int64
		for _, s := range sizes {
			b := int(s)%256 + 1
			want += int64((b + 1) / 2) // FlitBytes == 2
			send(m, 0, 3, b, 0, func() {})
		}
		eng.Run()
		return st.Global.Get(stats.NetFlits) == want &&
			st.Global.Get(stats.NetPackets) == int64(len(sizes))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
