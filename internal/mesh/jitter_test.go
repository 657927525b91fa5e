package mesh

import (
	"testing"
	"testing/quick"

	"alewife/internal/sim"
)

// jitterParams perturbs timing only: a NetFault with injection jitter and
// no drop, dup or reorder rate.
func jitterParams(maxJitter, seed uint64) Params {
	p := DefaultParams()
	p.Fault = &NetFault{Seed: seed, Jitter: maxJitter}
	return p
}

func TestJitterNeverEarly(t *testing.T) {
	// Jitter only adds delay: every delivery is at or after the unjittered
	// time.
	base := deliverTime(t, 4, 4, 0, 15, 64)
	for seed := uint64(0); seed < 5; seed++ {
		eng := sim.NewEngine()
		m := New(eng, 4, 4, jitterParams(100, seed), nil)
		var at sim.Time
		send(m, 0, 15, 64, 0, func() { at = eng.Now() })
		eng.Run()
		if at < base {
			t.Fatalf("seed %d: jittered delivery %d before base %d", seed, at, base)
		}
		if at > base+100+16 {
			t.Fatalf("seed %d: jitter exceeded bound: %d vs %d", seed, at, base)
		}
	}
}

func TestJitterPreservesPairFIFO(t *testing.T) {
	// A burst of same-pair packets with different sizes must arrive in
	// send order under any seed, on the mesh and the ideal network alike.
	for seed := uint64(1); seed < 8; seed++ {
		eng := sim.NewEngine()
		p := jitterParams(300, seed)
		for _, net := range []Network{
			New(eng, 2, 1, p, nil),
			&Ideal{Eng: eng, N: 2, Latency: 3, BytesPerCycle: 2, Fault: p.Fault},
		} {
			var order []int
			sizes := []int{256, 8, 128, 8, 512, 16}
			for i, sz := range sizes {
				i := i
				send(net, 0, 1, sz, 0, func() { order = append(order, i) })
			}
			eng.Run()
			if len(order) != len(sizes) {
				t.Fatalf("seed %d, %T: %d of %d packets arrived", seed, net, len(order), len(sizes))
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("seed %d, %T: arrival order %v", seed, net, order)
				}
			}
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) sim.Time {
		eng := sim.NewEngine()
		m := New(eng, 4, 4, jitterParams(200, seed), nil)
		var last sim.Time
		for i := 0; i < 10; i++ {
			send(m, i%16, (i*7)%16, 32, 0, func() { last = eng.Now() })
		}
		eng.Run()
		return last
	}
	if run(42) != run(42) {
		t.Fatal("same seed, different outcome")
	}
	if run(1) == run(2) {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

// Property: per-pair FIFO holds for random bursts across random pairs.
func TestPropertyJitterFIFO(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 30 {
			return true
		}
		eng := sim.NewEngine()
		m := New(eng, 3, 3, jitterParams(uint64(seed%500)+1, seed), nil)
		type key struct{ s, d int }
		sent := map[key][]int{}
		got := map[key][]int{}
		for i, r := range raw {
			i := i
			k := key{int(r) % 9, int(r>>4) % 9}
			sent[k] = append(sent[k], i)
			send(m, k.s, k.d, int(r)%100+1, 0, func() {
				got[k] = append(got[k], i)
			})
		}
		eng.Run()
		for k, want := range sent {
			if len(got[k]) != len(want) {
				return false
			}
			for i := range want {
				if got[k][i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
