package mesh

import (
	"testing"
	"testing/quick"

	"alewife/internal/sim"
)

func torusDeliverTime(t *testing.T, w, h, src, dst, bytes int) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	m := NewTorus(eng, w, h, DefaultParams(), nil)
	var at sim.Time
	done := false
	send(m, src, dst, bytes, 0, func() { at = eng.Now(); done = true })
	eng.Run()
	if !done {
		t.Fatalf("torus packet %d->%d not delivered", src, dst)
	}
	return at
}

func TestTorusDist(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTorus(eng, 8, 8, DefaultParams(), nil)
	cases := []struct{ a, b, d int }{
		{0, 7, 1},  // wrap in X
		{0, 56, 1}, // wrap in Y
		{0, 63, 2}, // wrap both
		{0, 4, 4},  // halfway: no shortcut
		{0, 5, 3},  // 5 east or 3 west
	}
	for _, c := range cases {
		if got := m.Dist(c.a, c.b); got != c.d {
			t.Errorf("torus Dist(%d,%d) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestTorusWrapFaster(t *testing.T) {
	// Corner to corner: 14 hops on the mesh, 2 on the torus.
	meshT := deliverTime(t, 8, 8, 0, 63, 16)
	torusT := torusDeliverTime(t, 8, 8, 0, 63, 16)
	if torusT >= meshT {
		t.Fatalf("torus (%d) not faster than mesh (%d) corner-to-corner", torusT, meshT)
	}
}

func TestTorusMatchesMeshNearby(t *testing.T) {
	// Short distances don't use wrap links: identical latency.
	meshT := deliverTime(t, 8, 8, 0, 1, 16)
	torusT := torusDeliverTime(t, 8, 8, 0, 1, 16)
	if meshT != torusT {
		t.Fatalf("neighbour latency differs: mesh %d, torus %d", meshT, torusT)
	}
}

func TestRingTopology(t *testing.T) {
	// 1xN torus is a ring; 0 -> N-1 is one hop.
	lat := torusDeliverTime(t, 8, 1, 0, 7, 16)
	far := torusDeliverTime(t, 8, 1, 0, 4, 16)
	if lat >= far {
		t.Fatalf("ring wrap hop (%d) not faster than halfway (%d)", lat, far)
	}
}

// Property: torus latency never exceeds mesh latency for the same pair,
// and both deliver.
func TestPropertyTorusNoWorse(t *testing.T) {
	f := func(sRaw, dRaw uint8) bool {
		src := int(sRaw) % 16
		dst := int(dRaw) % 16
		eng1 := sim.NewEngine()
		m1 := New(eng1, 4, 4, DefaultParams(), nil)
		var t1 sim.Time
		send(m1, src, dst, 32, 0, func() { t1 = eng1.Now() })
		eng1.Run()
		eng2 := sim.NewEngine()
		m2 := NewTorus(eng2, 4, 4, DefaultParams(), nil)
		var t2 sim.Time
		send(m2, src, dst, 32, 0, func() { t2 = eng2.Now() })
		eng2.Run()
		return t2 <= t1 && t2 > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: on the torus, every packet arrives and hop planning is
// consistent with Dist.
func TestPropertyTorusPlanMatchesDist(t *testing.T) {
	f := func(sRaw, dRaw uint8) bool {
		src := int(sRaw) % 24
		dst := int(dRaw) % 24
		eng := sim.NewEngine()
		m := NewTorus(eng, 6, 4, DefaultParams(), nil)
		// Latency difference vs a zero-hop send should scale with Dist.
		var tA, tB sim.Time
		send(m, src, dst, 16, 0, func() { tA = eng.Now() })
		send(m, src, src, 16, 0, func() { tB = eng.Now() })
		eng.Run()
		d := m.Dist(src, dst)
		if src == dst {
			// Same pair: strict FIFO delivers the second just after the first.
			return tB > tA
		}
		// Each hop adds RouterDelay over the loopback path's absence of hops.
		return tA >= tB && int(tA-tB) >= d-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
