package mesh

import (
	"testing"

	"alewife/internal/sim"
)

// TestPairStateBounded pins the fix for unbounded per-pair bookkeeping: the
// delivery floor is a dense array sized by the machine configuration (n^2
// words), so heavy traffic over many pairs cannot grow it.
func TestPairStateBounded(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 4, 4, jitterParams(5, 1), nil) // jitter exercises the FIFO clamp

	n := m.Nodes()
	want := n * n
	if got := m.PairStateWords(); got != want {
		t.Fatalf("pair state at construction: %d words, want %d", got, want)
	}

	// Traffic across every ordered pair, repeatedly.
	delivered := 0
	for round := 0; round < 50; round++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				send(m, src, dst, 8, eng.Now(), func() { delivered++ })
			}
		}
		eng.Run()
	}
	if delivered != 50*n*n {
		t.Fatalf("delivered %d packets, want %d", delivered, 50*n*n)
	}
	if got := m.PairStateWords(); got != want {
		t.Fatalf("pair state grew with traffic: %d words, want %d", got, want)
	}
}
